"""Certification: Hom spaces, Ext dimensions, indecomposability, sampling checks.

Hom(M, N) is the solution space of the intertwining system
f_h M(e) = N(e) f_t over the arrows e: t -> h, set up alike for Kronecker
and tree representations; Ext^1 is the cokernel dimension of the same
presentation, computed from the rank rather than from the bilinear form so
the Euler identity remains a nontrivial cross-check.  A brick (End of
dimension 1) is decided from the rank of the End system over any field;
it certifies every witness, on the tree for a push-down.  Locality of End,
for bare representations, is decided over the rationals: the radical is
the kernel of the trace form of the left regular representation, built
from structure constants read off a Hom basis reduced at its free columns,
each product checked exactly.  Every elimination, over Q or GF(p), goes
through the sparse engine of ``exactmat``, given the modulus and the rows
as the arrows' scalars make them; the brick test and Ext need only a
rank, so ``sparse_int_rank`` ranks their systems without it where it
can.  The End system of a representation with shifted-identity arrows
is a difference system, ranked by union-find for every characteristic at
once; a tree's is peeled to nothing.  The pipeline reads an echelon
witness's End dimension off its offsets instead (``echelon_end_dim``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import TreeRep
from .exactmat import ExactMatrix, QQ, Scalar, sparse_int_kernel, sparse_int_rank
from .kronecker import KroneckerRep, _sampled_ranks, generic_rank, tits_form


@dataclass(frozen=True)
class HomSpace:
    """Basis of morphism pairs (f1: aN x aM, f2: bN x bM) and its dimension."""

    basis: tuple[tuple[ExactMatrix, ExactMatrix], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _quiver(m: KroneckerRep | TreeRep):
    """Vertex dimensions and arrows {key: (tail, head, matrix)} of a representation."""
    if isinstance(m, TreeRep):
        return m.dims, {e: (*e, mat) for e, mat in m.maps.items()}
    return {1: m.dim.a, 2: m.dim.b}, {t: (1, 2, mat) for t, mat in enumerate(m.mats)}


def _intertwining_rows(m: KroneckerRep | TreeRep, n: KroneckerRep | TreeRep):
    """Sparse rows of the system f_h M(e) - N(e) f_t = 0 over the arrows e: t -> h.

    m and n are both Kronecker or both tree representations, with the same
    arrows.  Unknowns are the entries of each f_v (row-major), vertex by
    vertex in order: f1, then f2, on the Kronecker quiver.  One row per
    (arrow, target row p, source column j).  Each arrow of m is read once,
    column by column, from its transpose.
    """
    if m.field != n.field:
        raise ValueError("ground fields differ")
    (dims_m, arrows_m), (dims_n, arrows_n) = _quiver(m), _quiver(n)
    if arrows_m.keys() != arrows_n.keys():
        raise ValueError("arrows differ")
    off, nvars = {}, 0
    for v in sorted(dims_m):
        off[v] = nvars
        nvars += dims_n.get(v, 0) * dims_m[v]
    rows = []
    for key in sorted(arrows_m):
        t, h, A = arrows_m[key]
        B = arrows_n[key][2]   # dim N_h x dim N_t
        dt, dh = dims_m.get(t, 0), dims_m.get(h, 0)
        a_cols = A.transpose().sparse_rows()   # column j of M(e): q -> entry
        for p, b_row in enumerate(B.sparse_rows()):
            for j, a_col in enumerate(a_cols):
                row = {off[h] + p * dh + q: x for q, x in a_col.items()}
                for i, y in b_row.items():
                    row[off[t] + i * dt + j] = -y
                if row:
                    rows.append(row)
    return rows, nvars


def hom_space(m: KroneckerRep, n: KroneckerRep) -> HomSpace:
    """Basis of the space of morphisms from m to n, solved exactly."""
    (aM, bM), (aN, bN) = m.dim, n.dim
    rows, nvars = _intertwining_rows(m, n)
    fld = m.field
    off = aN * aM
    basis = []
    for vec in sparse_int_kernel(rows, nvars, fld.modulus):
        f1, f2 = [{} for _ in range(aN)], [{} for _ in range(bN)]
        for k, x in vec.items():
            if k < off:
                f1[k // aM][k % aM] = x
            else:
                f2[(k - off) // bM][(k - off) % bM] = x
        basis.append((ExactMatrix.from_rows(fld, f1, aM), ExactMatrix.from_rows(fld, f2, bM)))
    return HomSpace(tuple(basis))


def ext_dim(m: KroneckerRep, n: KroneckerRep) -> int:
    """Dimension of Ext^1(m, n) from the intertwining presentation.

    Computed as r*aM*bN minus the rank of the system matrix (the cokernel
    of the map (f1, f2) -> (f2 M(g_i) - N(g_i) f1)_i), independently of
    the bilinear form.
    """
    rows, nvars = _intertwining_rows(m, n)
    rk = sparse_int_rank(rows, nvars, m.field.modulus)
    return m.r * m.dim.a * n.dim.b - rk


def is_brick(m: KroneckerRep | TreeRep) -> bool:
    """True iff End(m) is one-dimensional; m is a Kronecker or a tree
    representation over any field, and its End system is only ranked.

    The generic test, for trees and bare representations: with shifted-
    identity arrows End is a difference system, ranked by union-find in
    every characteristic at once, and a tree's peels to an empty core.
    The pipeline decides an echelon witness from its offsets
    (``echelon_end_dim``) and comes here when an arrow is not I(l).
    """
    rows, nvars = _intertwining_rows(m, m)
    return nvars - sparse_int_rank(rows, nvars, m.field.modulus) == 1


def _block_diagonal_rows(f1: ExactMatrix, f2: ExactMatrix) -> list[list[tuple[int, Scalar]]]:
    """Sparse rows of diag(f1, f2), each a list of (column, entry) pairs."""
    a = f1.rows
    return ([list(row.items()) for row in f1.sparse_rows()]
            + [[(a + q, x) for q, x in row.items()] for row in f2.sparse_rows()])


def _compose(x_rows: list, y_rows: list) -> dict[int, Scalar]:
    """Non-zero entries of the product x y of block-diagonal sparse matrices.

    Entry (g, h) is keyed g*n + h, n the matrix size; on block-diagonal
    supports that order is hom_space's unknown order (f1 row-major, then
    f2 row-major).
    """
    n = len(x_rows)
    out: dict[int, Scalar] = {}
    for g, row in enumerate(x_rows):
        base = g * n
        for k, v in row:
            for h, w in y_rows[k]:
                out[base + h] = out.get(base + h, 0) + v * w
    return {key: v for key, v in out.items() if v}


def _coordinates(prod: dict[int, Scalar], free: list[int], basis: list[dict]) -> list:
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
    a = m.dim.a
    return all(rk == a for rk in _sampled_ranks(m, samples, seed))


def eip_sample_check(m: KroneckerRep, samples: int = 200, seed: int = 0) -> bool:
    """True iff every sampled pencil has full row rank (probabilistic check)."""
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
