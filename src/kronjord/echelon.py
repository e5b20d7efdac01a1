"""Echelon witnesses: shifted-identity arrow matrices with distinct offsets.

For dimension vectors (a, b) with b <= (r-1)a inside the admissible
region, the representation whose arrow matrices are shifted identity
blocks I(l) with pairwise distinct offsets l is a brick with the
equal-kernels property.  The offset injection follows a fixed case table
on the division b = q*a + s; the EKP certificate is a purely structural
check on the matrices, quantifier-free over the coefficient field, and
the same offset match gives the End dimension for every characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactmat import QQ, ExactMatrix, Field
from .kronecker import DimVector, KroneckerRep, tits_form


@dataclass(frozen=True)
class EchelonSpec:
    """Offsets for one echelon witness: an injection {1..r} -> {1..b-a+1}."""

    r: int
    a: int
    b: int
    phi: tuple[int, ...]   # phi[i-1] is the offset of arrow i
    case_tag: str          # b-case | c-case | d-case

    def __post_init__(self):
        if len(set(self.phi)) != self.r:
            raise ValueError("phi must be injective")
        if self.b - self.a < self.r - 1:
            raise ValueError("codomain {1..b-a+1} admits no injection from {1..r}")
        for l in self.phi:
            if not 1 <= l <= self.b - self.a + 1:
                raise ValueError(f"offset {l} outside 1..{self.b - self.a + 1}")


def shifted_identity(b: int, a: int, l: int, field: Field = QQ) -> ExactMatrix:
    """The b x a matrix with an identity block starting at row l (1-based)."""
    if not 1 <= l <= b - a + 1:
        raise ValueError(f"offset {l} outside 1..{b - a + 1}")
    rows: list[dict] = [{}] * b
    for j in range(a):
        rows[l - 1 + j] = {j: field.one}
    return ExactMatrix.from_rows(field, rows, a)


def _extend_injection(seeds: dict[int, int], r: int, codomain_max: int) -> tuple[int, ...]:
    """Fill arrows without a seed with the smallest unused offsets, ascending."""
    used = set(seeds.values())
    free = iter(l for l in range(1, codomain_max + 1) if l not in used)
    phi = []
    for i in range(1, r + 1):
        phi.append(seeds[i] if i in seeds else next(free))
    return tuple(phi)


def select_phi(r: int, a: int, b: int) -> EchelonSpec:
    """Choose the offset injection for dimension vector (a, b).

    Writes b = q*a + s with 0 <= s < a and dispatches on (q, s).  The
    combination q <= 1 with s < r-1 cannot occur inside the admissible
    region (it would force b - a < r - 1) and is asserted away.
    """
    if a < 2:
        raise ValueError("echelon construction needs a >= 2")
    if tits_form(r, (a, b)) > 0:
        raise ValueError("echelon construction needs q(a,b) <= 0")
    if b > (r - 1) * a:
        raise ValueError("echelon construction needs b <= (r-1)a")
    if b - a < r - 1:
        raise ValueError("echelon construction needs b - a >= r-1")
    q, s = divmod(b, a)
    cod = b - a + 1
    if q <= 1 and s < r - 1:
        raise AssertionError("unreachable case: q <= 1 and s < r-1 contradicts b-a >= r-1")
    if q == 1:
        # s >= r-1 >= 2, so the seed offsets 1, s+1, 2 are pairwise distinct
        seeds = {1: 1, 2: s + 1, 3: 2}
        tag = "b-case"
    elif s == 0:
        # 2 <= q <= r-1; offsets (i-1)a+1 climb to b-a+1 and avoid 2 since a >= 2
        seeds = {i: (i - 1) * a + 1 for i in range(1, q + 1)}
        seeds[q + 1] = 2
        tag = "c-case"
    else:
        # 2 <= q <= r-2 and 0 < s < a; the top offset is pinned to the
        # codomain maximum b-a+1 = (q-1)a+s+1, distinct from all others
        seeds = {i: (i - 1) * a + 1 for i in range(1, q + 1)}
        seeds[q + 1] = cod
        seeds[q + 2] = 2
        tag = "d-case"
    return EchelonSpec(r, a, b, _extend_injection(seeds, r, cod), tag)


def build_echelon_rep(spec: EchelonSpec, field: Field = QQ) -> KroneckerRep:
    """The representation with mats[i] = I(phi(i))."""
    mats = tuple(shifted_identity(spec.b, spec.a, l, field) for l in spec.phi)
    return KroneckerRep(spec.r, DimVector(spec.a, spec.b), mats, field)


def _match_shifted_identity(m: ExactMatrix) -> int | None:
    """The offset l with m == I(l), or None if m is not a shifted identity."""
    b, a, rows, one = m.rows, m.cols, m.sparse_rows(), m.field.one
    top = next((i for i, row in enumerate(rows) if row), None)
    if a == 0 or top is None or top + a > b or any(rows[top + a:]):
        return None
    return top + 1 if all(rows[top + j] == {j: one} for j in range(a)) else None


def echelon_offsets(m: KroneckerRep) -> tuple[int, ...] | None:
    """The offsets l_i with arrow i equal to I(l_i), or None if some arrow is not a
    shifted identity.  The offsets need not be distinct."""
    offsets = tuple(map(_match_shifted_identity, m.mats))
    return None if None in offsets else offsets


def ekp_echelon_certificate(m: KroneckerRep) -> bool:
    """Exact structural EKP certificate.

    True iff every arrow matrix equals a shifted identity I(l_i) with the
    l_i pairwise distinct.  Column j of any nonzero pencil then has its
    lowest nonzero entry in row min{l_i : alpha_i != 0} + j - 1, strictly
    increasing in j, so the pencil has full column rank for every alpha.
    """
    offsets = echelon_offsets(m)
    return offsets is not None and len(set(offsets)) == len(offsets)


def echelon_end_dim(a: int, b: int, offsets: Sequence[int]) -> int:
    """dim End of the representation with b x a arrows I(l), l in ``offsets``.

    With L = l - 1, arrow I(l) gives the End system exactly one relation
    per (p, j): f2[p][j+L] = f1[p-L][j] when 0 <= p-L < a, and
    f2[p][j+L] = 0 otherwise.  So the dimension is a^2 + b^2 minus the
    joins that merge two components minus the components holding a
    ground, found by a union-find over flat indices with no row built.
    Every entry is 1 and every relation a difference or a ground, so the
    dimension, and the brick verdict, is the same in every
    characteristic.  Each f2[p][q] is tied to its neighbours f1[p-L][q-L]
    (the ground when p-L is out of range) over the L with 0 <= q-L < a:
    it joins the first one's component and merges the others' into it, so
    the union-find runs over f1's a^2 entries and one ground node only.
    Repeated offsets are allowed.
    """
    ground = a * a
    parent = list(range(ground + 1))

    def find(u: int) -> int:
        # the root of u's component, halving the path on the way
        while (w := parent[u]) != u:
            parent[u] = u = parent[w]
        return u

    dim = a * a + b * b
    for q in range(b):
        shifts = [l - 1 for l in offsets if 0 <= q - l + 1 < a]
        if shifts:
            dim -= b    # each f2[p][q] joins its first neighbour's component
        if len(shifts) < 2:
            continue
        # a row whose neighbours are all the ground merges nothing
        for p in range(min(shifts), min(b, max(shifts) + a)):
            hub = None
            for L in shifts:
                u = find((p - L) * a + q - L if 0 <= p - L < a else ground)
                if hub is None:
                    hub = u
                elif u != hub:
                    parent[u] = hub
                    dim -= 1
    return dim
