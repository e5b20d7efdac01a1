"""Output checks that do not trust the code under test.

Everything here is re-derived from integer arithmetic and the witness
text: the route a Jordan type must take, the dimension vector, and the
pencil rank at random points, computed by an elimination modulo a large
prime that shares no code with kronjord.  A rank modulo p never exceeds
the rank over Q, so ``rank_p == d`` proves the Jordan type [1]^c [2]^d at
that point; a false alarm needs p to divide a nonzero minor, which has
probability about d / p.
"""

from __future__ import annotations

import random
from fractions import Fraction

PRIME = (1 << 61) - 1

# Certificate kinds each route may carry.  The preprojective and simple
# routes may move from a sampled to an exact cover certificate.
ALLOWED_KINDS = {
    "simple": {"sampled", "inj-cover"},
    "preprojective": {"sampled", "inj-cover"},
    "echelon": {"echelon"},
    "cover": {"inj-cover"},
    "shift": {"inj-cover"},
}


def tits(r: int, a: int, b: int) -> int:
    return a * a + b * b - r * a * b


def route(r: int, c: int, d: int) -> str | None:
    """The construction a realizable type (c, d) takes, or None if it has none."""
    if (c, d) == (1, 0):
        return "simple"
    a, b = d, d + c
    if c < 1 or d < 1 or c < r - 1 or tits(r, a, b) > 1:
        return None
    if tits(r, a, b) == 1:
        return "preprojective"
    if b <= (r - 1) * a:
        return "echelon"
    if (r - 1) * b <= (r * r - r - 1) * a:
        return "cover"
    return "shift"


def rank_mod(rows: list[list[int]], p: int = PRIME) -> int:
    """Rank of an integer matrix modulo p by plain Gaussian elimination."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        prow = [x * inv % p for x in mat[rank]]
        mat[rank] = prow
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
        rank += 1
    return rank


def _scalar_mod(text: str, field: dict, p: int) -> int:
    if field["type"] == "GF":
        return int(text)
    x = Fraction(text)
    return x.numerator * pow(x.denominator, -1, p) % p


def pencil_ranks(rep: dict, points: int, rng: random.Random) -> list[int]:
    """Pencil ranks of a serialized representation at random points mod p.

    For a representation over GF(q) the pencil is taken mod q itself.
    """
    field = rep["field"]
    p = int(field["p"]) if field["type"] == "GF" else PRIME
    a, b = rep["dim"]
    mats = [[[_scalar_mod(x, field, p) for x in row] for row in m] for m in rep["mats"]]
    out = []
    for _ in range(points):
        alpha = [rng.randrange(1, p) for _ in mats]
        rows = [[sum(al * m[i][j] for al, m in zip(alpha, mats)) for j in range(a)]
                for i in range(b)]
        out.append(rank_mod(rows, p) if a and b else 0)
    return out


def check_witness(data: dict, r: int, c: int, d: int, mode: str,
                  rng: random.Random) -> list[str]:
    """Reasons a realized witness is wrong; empty when it passes."""
    problems = []
    want_route = route(r, c, d)
    rep = data.get("rep", {})
    want_dim = [d, d + c] if mode == "ekp" else [d + c, d]
    if rep.get("r") != r:
        problems.append(f"arrow count {rep.get('r')} != {r}")
    if rep.get("dim") != want_dim:
        problems.append(f"dimension {rep.get('dim')} != {want_dim}")
    if data.get("jordan") != [c, d]:
        problems.append(f"jordan {data.get('jordan')} != {[c, d]}")
    if data.get("mode") != mode:
        problems.append(f"mode {data.get('mode')} != {mode}")
    kind = data.get("ekp_certificate", {}).get("kind")
    if kind not in ALLOWED_KINDS.get(want_route, ()):
        problems.append(f"certificate {kind!r} not allowed on route {want_route}")
    if data.get("indec_evidence") not in ("brick", "local-endo"):
        problems.append(f"indecomposability evidence {data.get('indec_evidence')!r}")
    if not problems and d > 0:
        ranks = pencil_ranks(rep, 2, rng)
        if any(x != d for x in ranks):
            problems.append(f"pencil ranks {ranks} != {d}: not Jordan type [1]^{c}[2]^{d}")
    return problems


def check_modp(result: dict, r: int, a: int, b: int, is_sum: bool) -> list[str]:
    """Reasons a prime-field verification result is wrong; empty when it passes.

    The representation has the equal-kernels property over every field
    (echelon and Inj-cover certificates are field-free, and it survives
    direct sums), so the sampled check must accept and the generic rank
    must be a.  dim Hom - dim Ext^1 is the Euler form <(a,b),(a,b)>, and a
    sum M+M has at least a four-dimensional endomorphism algebra.
    """
    problems = []
    euler = tits(r, a, b)
    if result["hom"] - result["ext"] != euler:
        problems.append(f"Euler identity: {result['hom']} - {result['ext']} != {euler}")
    if result["brick"] != (result["hom"] == 1):
        problems.append(f"is_brick {result['brick']} disagrees with dim End {result['hom']}")
    if is_sum and (result["brick"] or result["hom"] < 4):
        problems.append(f"M+M reported with dim End {result['hom']}, brick={result['brick']}")
    if not result["ekp"]:
        problems.append("sampled EKP check rejected an EKP representation")
    if result["generic_rank"] != a:
        problems.append(f"generic rank {result['generic_rank']} != {a}")
    return problems
