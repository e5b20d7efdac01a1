"""Workload inputs, generated from the benchmark seed alone.

A workload is a deck: the inputs of one pass, in the order they run.
Each realize deck holds ``Item``s, each a type (r, c, d) with its route,
a mode and the two seeds kronjord receives.  The modp deck holds
``ModpItem``s, each naming a representation to build over GF(p).

Everything that moves the cost of a pass is fixed, so every seed
carries the same work: the cases, their modes, the sampling seeds
kronjord receives for them and, on modp-verify, the primes.  The seed
draws the order of each deck and the sampling seeds of the modp checks,
which test a hundred points each, so the points drawn barely move their
cost.  The End dimension ``nb`` of each cover case was measured on the
representation kronjord builds for it.  Every deck is small enough that
a 25-second run repeats each input several times.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from oracle import route

# The sampling seeds kronjord receives.  They are fixed: on one type the
# sampled checks cost up to 40 % more with one seed than with another.
REALIZE_SEED = 0
VALIDATE_SEED = 1


class Item(NamedTuple):
    r: int
    c: int
    d: int
    route: str
    mode: str        # ekp | eip
    seed: int        # realize sampling seed
    vseed: int       # validate_witness sampling seed

    @property
    def key(self) -> str:
        return f"{self.r},{self.c},{self.d},{self.mode},{self.seed}"


class ModpItem(NamedTuple):
    kind: str        # echelon | cover
    r: int
    a: int           # dimension vector of the summand
    b: int
    p: int
    double: bool     # verify M + M instead of M
    seed: int        # sampling seed of the EKP and generic-rank checks

    @property
    def key(self) -> str:
        return f"{self.kind},{self.r},{self.a},{self.b},{self.p},{int(self.double)}"


# --- sweep-small -------------------------------------------------------------

SWEEP_RS = (2, 3, 4)
SWEEP_MAX_TOTAL = 12


def sweep_types() -> list[tuple[int, int, int, str]]:
    """Every realizable (r, c, d) with a + b = 2d + c <= SWEEP_MAX_TOTAL."""
    out = []
    for r in SWEEP_RS:
        out.append((r, 1, 0, "simple"))
        for d in range(1, SWEEP_MAX_TOTAL):
            for c in range(0, SWEEP_MAX_TOTAL - 2 * d + 1):
                rt = route(r, c, d)
                if rt is not None:
                    out.append((r, c, d, rt))
    return out


def _items(rng: random.Random, cases, modes) -> list[Item]:
    """Each case in each of the modes, in a shuffled order.

    The mode decides which sampled check runs (EIP costs several times
    EKP), so a seed-drawn mode would move a pass's cost from seed to seed.
    """
    out = [Item(r, c, d, rt, mode, REALIZE_SEED, VALIDATE_SEED)
           for r, c, d, rt in cases for mode in modes]
    rng.shuffle(out)
    return out


def sweep_small(seed: int) -> list[Item]:
    return _items(random.Random(seed), sweep_types(), ("ekp", "eip"))


# --- brick-mid and local-end ----------------------------------------------------
#
# Cases are (r, a, b) dimension vectors; (c, d) = (b - a, a).  They are
# fixed: neighbouring cases with the same End dimension differ by up to
# 50 % in cost, which moved a drawn deck's pass time by 20 % from seed to
# seed.  They run in ekp mode only: in eip mode the sampled EIP check
# outweighs the layer each deck is chosen for.

BRICK_CASES = [
    (3, 20, 40),    # echelon brick, a + b = 60
    (4, 14, 42),    # echelon brick, a + b = 56
    (3, 16, 33),    # cover witness with End dimension 1, lower window edge
]

LOCAL_CASES = [
    (3, 13, 30),    # cover witness, End dimension 10
    (3, 11, 26),    # cover witness, End dimension 7
    (3, 13, 33),    # shift-route witness, End dimension 5
]


def _fixed(seed: int, cases) -> list[Item]:
    return _items(random.Random(seed), [(r, b - a, a, route(r, b - a, a)) for r, a, b in cases],
                  ("ekp",))


def brick_mid(seed: int) -> list[Item]:
    return _fixed(seed, BRICK_CASES)


def local_end(seed: int) -> list[Item]:
    return _fixed(seed, LOCAL_CASES)


# --- modp-verify ----------------------------------------------------------------

# (kind, r, a, b, p, double); a + b of the verified representation is 16
# to 20.  Dense elimination is cubic, so a neighbouring shape can cost 50 %
# more, and the prime moves the cost too: shapes and primes are fixed.
MODP_SHAPES = [
    ("echelon", 3, 6, 10, 101, False),
    ("echelon", 4, 5, 11, 103, False),
    ("cover", 3, 5, 12, 107, False),
    ("cover", 4, 4, 13, 109, False),
    ("echelon", 3, 3, 6, 113, True),
    ("cover", 3, 3, 7, 101, True),
]


def modp_verify(seed: int) -> list[ModpItem]:
    rng = random.Random(seed)
    out = [ModpItem(kind, r, a, b, p, double, rng.randrange(1 << 20))
           for kind, r, a, b, p, double in MODP_SHAPES]
    rng.shuffle(out)
    return out


WORKLOADS = {
    "sweep-small": sweep_small,
    "brick-mid": brick_mid,
    "local-end": local_end,
    "modp-verify": modp_verify,
}
