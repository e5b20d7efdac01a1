"""Certification: Hom spaces, Ext dimensions, indecomposability, sampling checks.

Hom(M, N) is the solution space of the intertwining system
f_h M(e) = N(e) f_t over the arrows e: t -> h, set up alike for Kronecker
and tree representations; Ext^1 is the cokernel dimension of the same
presentation, computed from the rank rather than from the bilinear form.
End(M) of a Kronecker representation is one ``SparseSystem``, built on
the first call that needs it and kept on M: Hom, Ext and the brick test
share its rows, its difference forest and its one elimination.  On a
difference system Hom and the rank both read that one union-find; on any
other system both read one peel, whose core alone goes to the engine:
the rank counts its pivots, and Hom's basis is back-substituted through
them, the core's pivots first and then the peel's in reverse.  That is
sound because a row pivot's column is 0, a column pivot's row holds only
columns fixed later or row-pivot columns, and a row left with no live
column holds only row-pivot columns (``exactmat._peel``).  So the Euler
identity hom - ext = q compares no two eliminations of one system; the
tests compare Hom's basis and the rank with separate references.  A
brick (End of dimension 1) is decided from the rank of the End system
over any field; it certifies every witness, on the tree for a
push-down.  Locality of End, for bare representations, is decided over
the rationals: the radical is the kernel of the trace form of End acting
on the representation itself, each trace read off the sparse rows of a
Hom basis.  Every rank and kernel, over Q or GF(p), comes from
``exactmat``, given the modulus and the rows as the arrows' scalars make
them, and skips the sparse engine where it can.  The End system of a
representation with shifted-identity arrows is a difference system,
whose rank and Hom basis one union-find gives in every characteristic;
a tree's is peeled to nothing for a rank.  The pipeline reads an echelon
witness's End dimension off its offsets instead (``echelon_end_dim``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import TreeRep
from .exactmat import ExactMatrix, QQ, Scalar, SparseSystem
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
        off_t, off_h = off[t], off[h]
        for p, b_row in enumerate(B.sparse_rows()):
            base = off_h + p * dh
            neg_b = [(off_t + i * dt, -y) for i, y in b_row.items()]
            for j, a_col in enumerate(a_cols):
                row = {base + q: x for q, x in a_col.items()}
                for c, y in neg_b:
                    row[c + j] = y
                if row:
                    rows.append(row)
    return rows, nvars


def _system(m: KroneckerRep | TreeRep, n: KroneckerRep | TreeRep) -> SparseSystem:
    """The intertwining system of (m, n) over m's field.

    End(m) of a Kronecker representation is built once and kept on m, so
    Hom, Ext and the brick test share its rows, its difference forest and
    its rank; any other pair, trees included, gets a system of its own.
    """
    if n is m and isinstance(m, KroneckerRep):
        system = m._end_memo.get("system")
        if system is None:
            system = m._end_memo.setdefault(
                "system", SparseSystem(*_intertwining_rows(m, m), m.field.modulus))
        return system
    return SparseSystem(*_intertwining_rows(m, n), m.field.modulus)


def hom_space(m: KroneckerRep, n: KroneckerRep) -> HomSpace:
    """Basis of the space of morphisms from m to n, solved exactly.

    The kernel of ``_system(m, n)``: for n is m, End(m)'s system, whose
    rows, difference forest and elimination ``is_brick`` and ``ext_dim``
    share.  Off a difference system the basis is read off the one peel
    that ranks the system (its core, if any, echelonized by the engine):
    back-substituted through the core's pivots and then the peel's in
    reverse, and re-reduced onto the engine's free columns only where the
    peel freed others, so the basis is the engine's.
    """
    (aM, bM), (aN, bN) = m.dim, n.dim
    fld = m.field
    off = aN * aM
    basis = []
    for vec in _system(m, n).kernel():
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
    the bilinear form.  For n is m the system is End(m)'s, shared with
    ``hom_space`` and ``is_brick``: its rows, its difference forest and
    its one elimination.  Off a difference system the rank is the number
    of pivots of the peel and of its core's echelon, the elimination
    Hom's basis is read off.
    """
    return m.r * m.dim.a * n.dim.b - _system(m, n).rank()


def is_brick(m: KroneckerRep | TreeRep) -> bool:
    """True iff End(m) is one-dimensional; m is a Kronecker or a tree
    representation over any field, and its End system is only ranked.

    The generic test, for trees and bare representations: with shifted-
    identity arrows End is a difference system, ranked by union-find in
    every characteristic at once, and a tree's peels to an empty core.
    A Kronecker representation's End system is the one ``hom_space`` and
    ``ext_dim`` read, rows, difference forest and elimination alike; a
    tree's is built and ranked afresh on every call.  Off a difference
    system the rank counts the pivots of one peel and of its core's
    echelon, the elimination Hom's basis is read off.  The pipeline
    decides an echelon witness from its offsets (``echelon_end_dim``) and
    comes here when an arrow is not I(l).
    """
    system = _system(m, m)
    return system.ncols - system.rank() == 1


def _trace_of_product(x: ExactMatrix, y: ExactMatrix) -> Scalar:
    """tr(x y) = sum over p, q of x[p][q] y[q][p], read off the sparse rows."""
    y_rows = y.sparse_rows()
    return sum(v * y_rows[q].get(p, 0) for p, row in enumerate(x.sparse_rows())
               for q, v in row.items())


def end_is_local(m: KroneckerRep) -> bool:
    """Locality of End(m) over the rationals: indecomposability certificate.

    End(m) acts faithfully on m1 + m2, with trace form T_ij =
    tr(f1_i f1_j) + tr(f2_i f2_j) on the hom_space basis; End is local
    with residue field Q exactly when rank T = dim End/rad End is 1.
    That rank: the radical I of (f, g) -> tr(fg) is a two-sided ideal,
    the trace being cyclic.  Each f in I has tr(f^k) = 0 for all k >= 1,
    so f is nilpotent by Newton's identities (characteristic zero): the
    nil ideal I lies in rad End.  For f in rad End each fg lies in rad
    End, nilpotent, of trace 0: rad End lies in I.  Each trace is read
    off the sparse rows, no product of endomorphisms is formed, and T is
    filled from one triangle.
    """
    if m.field != QQ:
        raise ValueError("locality testing is supported over the rationals only")
    basis = hom_space(m, m).basis
    nb = len(basis)
    if nb <= 1:
        return nb == 1
    form = [[0] * nb for _ in range(nb)]
    for i, (f1, f2) in enumerate(basis):
        for j, (g1, g2) in enumerate(basis[i:], i):
            form[i][j] = form[j][i] = _trace_of_product(f1, g1) + _trace_of_product(f2, g2)
    return ExactMatrix(QQ, form, nb, nb).rank() == 1


# ---------------------------------------------------------------------------
# sampling checks
# ---------------------------------------------------------------------------

def ekp_sample_check(m: KroneckerRep, samples: int = 200, seed: int = 0) -> bool:
    """True iff every sampled pencil has zero kernel (probabilistic check).

    The standard basis vectors are always probed first; exact certificates
    come from the echelon and cover modules.  The points the pencil plan
    decides are ranked together before the first is read; the check stops
    at the first failing point, and ranks no later point that needs its
    arrow's rank or a pencil.
    """
    a = m.dim.a
    return all(rk == a for rk in _sampled_ranks(m, samples, seed))


def eip_sample_check(m: KroneckerRep, samples: int = 200, seed: int = 0) -> bool:
    """True iff every sampled pencil has full row rank (probabilistic check).

    Stops early as ``ekp_sample_check`` does.
    """
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
