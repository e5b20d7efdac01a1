"""A fixed kronjord-free kernel that measures how fast the machine is now.

The shared machine the benchmark was tuned on runs up to twice as
slow in bursts of a fraction of a second to minutes, and every kind of
Python work slows with it.  ``run.py`` runs this kernel between
operations and scales each operation's time by ``NOMINAL_S`` over the
mean time of the kernel runs just before and after it, so a burst moves
the kernel and the operation alike and cancels.

The kernel does the kinds of work kronjord's operations are made of:
fraction-free elimination of sparse integer rows held in dicts, dense
elimination over a prime field with a small slotted element class, and
``Fraction`` dot products.  It shares no code with kronjord, so no change
to kronjord moves it.  It runs with the garbage collector off, so the
size of the heap the workload leaves behind does not move it either.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction
from math import gcd

# the kernel's usual time on a quiet run of the machine the benchmark was
# tuned on (2-vCPU shared VM, Intel Xeon at 2.1 GHz, CPython 3.11)
NOMINAL_S = 0.045

_rng = random.Random(20261017)
_SPARSE = [{j: _rng.choice((-3, -2, -1, 1, 2, 3)) for j in _rng.sample(range(64), 7)}
           for _ in range(72)]
_P = 101
_DENSE = [[_rng.randrange(_P) for _ in range(32)] for _ in range(32)]
_FRAC = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(60)]
         for _ in range(60)]


class _Mod:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % _P

    def __sub__(self, o: "_Mod") -> "_Mod":
        return _Mod(self.v - o.v)

    def __mul__(self, o: "_Mod") -> "_Mod":
        return _Mod(self.v * o.v)

    def inv(self) -> "_Mod":
        return _Mod(pow(self.v, _P - 2, _P))


def _sparse_rank() -> int:
    pivots: dict[int, dict[int, int]] = {}
    for row in _SPARSE:
        row = dict(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            a, b = piv[col], row[col]
            new = {}
            for k in piv.keys() | row.keys():
                v = a * row.get(k, 0) - b * piv.get(k, 0)
                if v:
                    new[k] = v
            g = 0
            for v in new.values():
                g = gcd(g, v)
            row = {k: v // g for k, v in new.items()} if g > 1 else new
    return len(pivots)


def _dense_rank() -> int:
    m = [[_Mod(v) for v in row] for row in _DENSE]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col].v), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col].inv()
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col].v:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _fraction_dots() -> Fraction:
    total = Fraction(0)
    for row in _FRAC:
        s = Fraction(0)
        for x, y in zip(row, _FRAC[0]):
            s += x * y
        total += s
    return total


def kernel() -> tuple:
    return _sparse_rank(), _dense_rank(), _fraction_dots()


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
