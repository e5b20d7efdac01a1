"""Echelon witnesses: shifted-identity arrow matrices with distinct offsets.

For dimension vectors (a, b) with b <= (r-1)a inside the admissible
region, the representation whose arrow matrices are shifted identity
blocks I(l) with pairwise distinct offsets l is a brick with the
equal-kernels property.  The offset injection follows a fixed case table
on the division b = q*a + s; the EKP certificate is a purely structural
check on the matrices, quantifier-free over the coefficient field.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    b, a = m.rows, m.cols
    l = next((i + 1 for i, row in enumerate(m.sparse_rows()) if row), None)
    if a == 0 or l is None or l + a - 1 > b:
        return None
    return l if m == shifted_identity(b, a, l, m.field) else None


def ekp_echelon_certificate(m: KroneckerRep) -> bool:
    """Exact structural EKP certificate.

    True iff every arrow matrix equals a shifted identity I(l_i) with the
    l_i pairwise distinct.  Column j of any nonzero pencil then has its
    lowest nonzero entry in row min{l_i : alpha_i != 0} + j - 1, strictly
    increasing in j, so the pencil has full column rank for every alpha.
    """
    offsets = []
    for mat in m.mats:
        l = _match_shifted_identity(mat)
        if l is None:
            return False
        offsets.append(l)
    return len(set(offsets)) == len(offsets)
