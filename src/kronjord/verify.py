"""Certification: Hom spaces, Ext dimensions, indecomposability, sampling checks.

Hom(M, N) is computed as the solution space of the intertwining system
f2 M(arrow_i) = N(arrow_i) f1; Ext^1 is the cokernel dimension of the same
presentation, computed from the rank rather than from the bilinear form so
the Euler identity remains a nontrivial cross-check.  Indecomposability is
certified through locality of the endomorphism algebra, whose radical is
the kernel of the trace form of the left regular representation (valid in
characteristic zero).  The locality test solves no linear system: the
Hom basis is reduced at its free columns, so the coordinates of a product
of basis endomorphisms are read off there, each product is checked
exactly against the combination they name, and the trace form is built
from the resulting structure constants.  Every elimination, over Q or
GF(p), goes through the column-indexed sparse integer engine of
``exactmat``, given the field's modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmat import ExactMatrix, QQ, integer_rows, sparse_int_echelon, sparse_int_kernel
from .kronecker import KroneckerRep, _sampled_ranks, generic_rank, tits_form


@dataclass(frozen=True)
class HomSpace:
    """Basis of morphism pairs (f1: aN x aM, f2: bN x bM) and its dimension."""

    basis: tuple[tuple[ExactMatrix, ExactMatrix], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _intertwining_rows(m: KroneckerRep, n: KroneckerRep):
    """Sparse rows of the system f2 M(g_i) - N(g_i) f1 = 0.

    Unknowns are the entries of f1 (row-major) followed by the entries of
    f2 (row-major).  One row per (arrow, target row p, source column j).
    Each arrow of m is read once, into the non-zero entries of its columns.
    """
    aM, bM = m.dim
    aN, bN = n.dim
    nvars = aN * aM + bN * bM
    f2_off = aN * aM
    rows = []
    for t in range(m.r):
        a_cols = [[] for _ in range(aM)]   # column j of M(g_t): its (q, entry) pairs
        for q in range(bM):
            for j, x in enumerate(m.mats[t].row_list(q)):
                if x:
                    a_cols[j].append((q, x))
        B = n.mats[t]   # bN x aN
        for p in range(bN):
            b_row = [(i, y) for i, y in enumerate(B.row_list(p)) if y]
            for j in range(aM):
                row = {f2_off + p * bM + q: x for q, x in a_cols[j]}
                for i, y in b_row:
                    row[i * aM + j] = -y
                if row:
                    rows.append(row)
    return rows, nvars


def hom_space(m: KroneckerRep, n: KroneckerRep) -> HomSpace:
    """Basis of the space of morphisms from m to n, solved exactly."""
    if m.r != n.r:
        raise ValueError("arrow counts differ")
    if m.field != n.field:
        raise ValueError("ground fields differ")
    aM, bM = m.dim
    aN, bN = n.dim
    rows, nvars = _intertwining_rows(m, n)
    fld = m.field
    kernel = sparse_int_kernel(integer_rows(rows), nvars, fld.modulus)
    basis = []
    for vec in kernel:
        f1 = ExactMatrix(fld, [[vec[i * aM + j] for j in range(aM)] for i in range(aN)], aN, aM)
        off = aN * aM
        f2 = ExactMatrix(fld, [[vec[off + p * bM + q] for q in range(bM)] for p in range(bN)], bN, bM)
        basis.append((f1, f2))
    return HomSpace(tuple(basis))


def ext_dim(m: KroneckerRep, n: KroneckerRep) -> int:
    """Dimension of Ext^1(m, n) from the intertwining presentation.

    Computed as r*aM*bN minus the rank of the system matrix (the cokernel
    of the map (f1, f2) -> (f2 M(g_i) - N(g_i) f1)_i), independently of
    the bilinear form.
    """
    if m.r != n.r:
        raise ValueError("arrow counts differ")
    if m.field != n.field:
        raise ValueError("ground fields differ")
    rows, nvars = _intertwining_rows(m, n)
    rk = len(sparse_int_echelon(integer_rows(rows), nvars, m.field.modulus))
    return m.r * m.dim.a * n.dim.b - rk


def is_brick(m: KroneckerRep) -> bool:
    """True iff the endomorphism algebra is one-dimensional."""
    return hom_space(m, m).dim == 1


def _block_diagonal_rows(f1: ExactMatrix, f2: ExactMatrix) -> list[list[tuple[int, Fraction]]]:
    """Sparse rows of diag(f1, f2), each a list of (column, entry) pairs."""
    a = f1.rows
    rows = [[(j, x) for j, x in enumerate(f1.row_list(i)) if x] for i in range(a)]
    rows += [[(a + q, x) for q, x in enumerate(f2.row_list(p)) if x] for p in range(f2.rows)]
    return rows


def _compose(x_rows: list, y_rows: list) -> dict[int, Fraction]:
    """Non-zero entries of the product x y of block-diagonal sparse matrices.

    Entry (g, h) is keyed g*n + h, n the matrix size; on block-diagonal
    supports that order is hom_space's unknown order (f1 row-major, then
    f2 row-major).
    """
    n = len(x_rows)
    out: dict[int, Fraction] = {}
    for g, row in enumerate(x_rows):
        base = g * n
        for k, v in row:
            for h, w in y_rows[k]:
                out[base + h] = out.get(base + h, 0) + v * w
    return {key: v for key, v in out.items() if v}


def _coordinates(prod: dict[int, Fraction], free: list[int], basis: list[dict]) -> list:
    """Coordinates of ``prod`` in a basis reduced at its free columns, checked exactly."""
    coords = [prod.get(f, 0) for f in free]
    rest = dict(prod)
    for ck, vec in zip(coords, basis):
        if ck:
            for key, v in vec.items():
                w = rest.get(key, 0) - ck * v
                if w:
                    rest[key] = w
                else:
                    del rest[key]
    if rest:
        raise AssertionError("endomorphism product escaped the basis span")
    return coords


def end_is_local(m: KroneckerRep) -> bool:
    """Locality of End(m) over the rationals: indecomposability certificate.

    The radical of the endomorphism algebra is the kernel of the trace
    bilinear form of the left regular representation (characteristic
    zero); the algebra is local with residue field k exactly when the
    form has rank 1.

    No linear system is solved.  Each basis vector of hom_space is 1 at
    its own free column, 0 at every other free column, and that column is
    its last non-zero unknown; so the coordinate of a product b_i b_j on
    b_k is read off at b_k's free column.  Every product is compared
    exactly with the combination of basis vectors its coordinates name.
    Since left multiplication L is an algebra map, the trace form comes
    from the structure constants, T_ij = sum_k C_ij^k tr(L_k) with
    tr(L_k) = sum_l C_kl^l, in O(nb^3) scalar operations.
    """
    if m.field != QQ:
        raise ValueError("locality testing is supported over the rationals only")
    endos = hom_space(m, m)
    nb = endos.dim
    if nb == 0:
        return False
    if nb == 1:
        return True
    rows = [_block_diagonal_rows(f1, f2) for f1, f2 in endos.basis]
    n = m.total_dim()
    basis = [{g * n + h: v for g, row in enumerate(r) for h, v in row} for r in rows]
    free = [max(vec) for vec in basis]
    for k, vec in enumerate(basis):
        if vec[free[k]] != 1 or sum(f in vec for f in free) != 1:
            raise AssertionError("hom_space basis is not reduced at its free columns")
    # structure constants: b_i b_j = sum_k const[i][j][k] b_k
    const = [[_coordinates(_compose(x, y), free, basis) for y in rows] for x in rows]
    tr_left = [sum(const[k][l][l] for l in range(nb)) for k in range(nb)]
    trace_form = [[sum(c * t for c, t in zip(const[i][j], tr_left)) for j in range(nb)]
                  for i in range(nb)]
    return ExactMatrix(QQ, trace_form, nb, nb).rank() == 1


# ---------------------------------------------------------------------------
# sampling checks
# ---------------------------------------------------------------------------

def ekp_sample_check(m: KroneckerRep, samples: int = 200, seed: int = 0) -> bool:
    """True iff every sampled pencil has zero kernel (probabilistic check).

    The standard basis vectors are always probed first; exact certificates
    come from the echelon and cover modules.  Stops at the first failing
    point.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    a = m.dim.a
    return all(rk == a for rk in _sampled_ranks(m, samples, seed))


def eip_sample_check(m: KroneckerRep, samples: int = 200, seed: int = 0) -> bool:
    """True iff every sampled pencil has full row rank (probabilistic check)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    b = m.dim.b
    return all(rk == b for rk in _sampled_ranks(m, samples, seed))


def restriction_check(m: KroneckerRep, samples: int = 200, seed: int = 0) -> tuple[bool, dict]:
    """Generic-rank restrictions satisfied by indecomposable representations.

    Computes (d_M, c_M) by sampling and checks q(d_M, d_M + c_M) <= 1;
    when the sampled ranks are constant and m is not simple, additionally
    checks c_M >= r - 1.  The caller is responsible for having certified
    indecomposability.
    """
    d, c, record = generic_rank(m, samples, seed)
    q_val = tits_form(m.r, (d, d + c))
    ok = q_val <= 1
    detail = {"d": d, "c": c, "q": q_val, "record": record}
    constant = len(record["ranks_seen"]) == 1
    if constant and m.total_dim() > 1:
        detail["cjt_clause"] = c >= m.r - 1
        ok = ok and c >= m.r - 1
    return ok, detail
