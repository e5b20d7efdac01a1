"""Reflection functors, the inverse translate, and preprojective witnesses.

Reflection at a source replaces its space by the cokernel of the combined
outgoing map and reverses the incident arrows.  On the bipartite cover the
inverse Auslander-Reiten translate factors as two such sweeps: reflect
every source in the one-ring extension of the support, then every old
sink (which became a source); the orientation returns to the bipartite
standard and zero vertices are trimmed.  This is the only inverse
translate: ``lift`` walks Phi down from a dimension vector to the simple, a
thin path or a cover tree, and back up with it, for the preprojective,
cover and shift routes alike; the pipeline certifies the push-downs.
"""

from __future__ import annotations

from typing import Optional

from .cover import (
    Address,
    TreeRep,
    build_indecomposable_tree_rep,
    build_root_vector,
    build_source_regular,
    is_source,
    neighbors,
    require_bipartite,
    thin_path_rep,
)
from .exactmat import ExactMatrix, Field, QQ, left_kernel_matrix
from .kronecker import DimVector, coxeter_apply, tits_form


# ---------------------------------------------------------------------------
# reflection functor at a source
# ---------------------------------------------------------------------------

def reflect_functor_source(m: TreeRep, *xs: Address) -> TreeRep:
    """Reflection functor at pairwise non-adjacent sources of the current orientation.

    The space at each x becomes the cokernel of the combined map into the
    sum of the neighbor spaces; the incident arrows reverse and the induced
    maps are the neighbor injections followed by the cokernel projection.
    When the combined map is injective the new dimension is the Weyl
    reflection of the old one.  Vertices of dimension zero are allowed
    (their reflection is the direct sum of the neighbor spaces).  No two
    of the xs share an edge, so every cokernel is read from ``m`` and one
    pass builds the result.  The stacked map holds the arrows' rows, and
    the new arrows the cokernel's entries: each is reduced and non-zero
    already, so both are wrapped as they are.
    """
    reflected = set(xs)
    for x in reflected:
        for y in neighbors(x, m.r):
            if y in reflected:
                raise ValueError(f"{x} and {y} are adjacent")
    for (t, h) in m.maps:
        if h in reflected:
            raise ValueError(f"{h} is not a source: incoming edge from {t}")
    dims = {v: d for v, d in m.dims.items() if v not in reflected}
    maps = {(t, h): mat for (t, h), mat in m.maps.items() if t not in reflected}
    for x in reflected:
        dx = m.dims.get(x, 0)
        nbrs = sorted(y for y in neighbors(x, m.r) if y in m.dims)
        stacked, owner = [], []   # owner[k]: the neighbor and its row of stacked row k
        for y in nbrs:
            mat = m.maps.get((x, y))
            stacked += mat.sparse_rows() if mat is not None else [{}] * m.dims[y]
            owner += [(y, i) for i in range(m.dims[y])]
        proj = left_kernel_matrix(ExactMatrix._wrap(m.field, stacked, dx)).sparse_rows()
        if proj:
            dims[x] = len(proj)
            blocks = {y: [{} for _ in proj] for y in nbrs}
            for k, row in enumerate(proj):
                for c, v in row.items():
                    y, i = owner[c]
                    blocks[y][k][i] = v
            for y in nbrs:
                maps[(y, x)] = ExactMatrix._wrap(m.field, blocks[y], m.dims[y])
    return TreeRep(m.r, dims, maps, m.field)


def tau_inverse_tree(m: TreeRep) -> TreeRep:
    """Inverse translate on the cover as a double reflection sweep.

    Every source adjacent to the support is reflected first (including the
    zero-dimensional ones, whose cokernels grow the support), then every
    old sink; each sweep is one ``reflect_functor_source`` call.  The
    result carries the bipartite orientation again; a zero result means
    the input was zero or injective and is an error.
    """
    require_bipartite(m, "the inverse translate")
    first = {v for v in m.dims if is_source(v)}
    for y in m.dims:
        if not is_source(y):
            first.update(neighbors(y, m.r))
    cur = reflect_functor_source(m, *first)
    second = {v for v in cur.dims if not is_source(v)}
    for x in cur.dims:
        if is_source(x):
            second.update(neighbors(x, m.r))
    cur = reflect_functor_source(cur, *second)
    if not cur.dims:
        raise ValueError("translate vanished: input was zero or injective")
    if cur.reversed_edge() is not None:
        raise AssertionError("sweep did not restore the bipartite orientation")
    return cur


# ---------------------------------------------------------------------------
# the Phi descent and the tree witnesses it seeds
# ---------------------------------------------------------------------------

def descend(r: int, a: int, b: int) -> tuple[int, DimVector]:
    """Walk (a, b) <- Phi(a, b) while a > 0, b > (r-1)a + 1 and
    (r-1)b > (r^2-r-1)a; return the number of steps l and the landing (u, v).

    Needs q(a, b) <= 1 and 0 <= a < b, and then stops with no bound:
    * q = 1: by Vieta jumping (a, b) is some P_i of the chain P_0 = (0,1),
      P_1 = (1,r), P_i = r P_{i-1} - P_{i-2}, and Phi maps P_i to P_{i-2}.
    * q <= 0, r >= 3: Phi maps the ratio t = b/a to (r-t)/((r^2-1)-rt),
      which is increasing, strictly below t on (1/lam, lam) (lam the larger
      root of t^2 - rt + 1) and without fixed point in [r - 1/(r-1), lam).
      So t falls below r - 1/(r-1) in finitely many steps, and a > 0
      throughout since t < lam < r - 1/r.
    * q <= 0, r = 2: q = (a-b)^2 forces a = b, which is excluded.
    """
    if tits_form(r, (a, b)) > 1 or not 0 <= a < b:
        raise ValueError(f"({a},{b}) needs q <= 1 and 0 <= a < b")
    l = 0
    while a > 0 and b > (r - 1) * a + 1 and (r - 1) * b > (r * r - r - 1) * a:
        a, b = coxeter_apply(r, (a, b), 1)
        l += 1
    return l, DimVector(a, b)


def lift(r: int, a: int, b: int, field: Field = QQ,
         trace: Optional[list[str]] = None) -> TreeRep:
    """A tree on the cover whose push-down is indecomposable of dimension (a, b).

    ``descend`` gives (l, (u, v)), and ``tau_inverse_tree`` l times lifts
    the seed read off (u, v) alone: the simple at the sink (1,) if u = 0;
    the cover tree if (u, v) lies in the cover window; otherwise the thin
    zigzag.  A shift (l > 0) is recorded in ``trace``.
    """
    l, (u, v) = descend(r, a, b)
    cover = (r - 1) * u + 1 <= v and (r - 1) * v <= (r * r - r - 1) * u
    if trace is None:
        trace = []
    if l:
        trace.append(f"shift:l={l}:{'cover' if cover else 'thin'}-case:intermediate=({u},{v})")
    if u == 0:
        tree = TreeRep(r, {(1,): 1}, {}, field)
    elif cover:
        quiver = build_source_regular(r, u)
        trace.append(f"source_regular:n={u}")
        alpha = build_root_vector(quiver, u, v)
        budgets = sorted(((w, alpha[w]) for w in alpha if alpha[w] > 1))
        trace.append(f"root_vector:extra={[(list(w), x) for w, x in budgets]}")
        tree = build_indecomposable_tree_rep(quiver, alpha, field, trace)
    else:
        tree = thin_path_rep(r, u, v, field)
        trace.append(f"thin_path:u={u},v={v}")
    for _ in range(l):
        tree = tau_inverse_tree(tree)
    return tree


def build_preprojective(r: int, a: int, b: int, field: Field = QQ) -> TreeRep:
    """A lift to the cover of the indecomposable with real root (a, b), 0 <= a < b.

    ``lift`` walks P_i down to P_{i-2} and seeds the simple or a thin path.
    With e_i = b_i - (r-1)a_i, e_0 = e_1 = 1 and e_i = r e_{i-1} - e_{i-2}.
    For r >= 3, e_i >= 2 when i >= 2: the walk stops at P_0 or at P_1, whose
    thin path is the star, after idx // 2 steps.  For r = 2, e_i = 1: each
    (n, n+1) with n >= 1 is its own seed, the zigzag centred on the root,
    which is the r = 2 source-regular tree: thin, connected and with all
    maps 1, hence Inj and a brick.  Push-down along the Galois cover keeps
    indecomposability (Gabriel 1981; Bongartz and Gabriel 1982).
    """
    if tits_form(r, (a, b)) != 1 or not 0 <= a < b:
        raise ValueError(f"({a},{b}) is not a preprojective root")
    return lift(r, a, b, field)
