"""Reflection functors, the inverse translate, and preprojective witnesses.

Reflection at a source replaces its space by the cokernel of the combined
outgoing map and reverses the incident arrows.  On the bipartite cover the
inverse Auslander-Reiten translate factors as two such sweeps: reflect
every source in the one-ring extension of the support, then every old
sink (which became a source); the orientation returns to the bipartite
standard and zero vertices are trimmed.  This is the only inverse
translate: the Coxeter shift and the preprojective walk (Phi down to the
simple or a thin path, then back up) both run it on tree representations,
whose push-downs the pipeline certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import (
    Address,
    TreeRep,
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
    pass builds the result.
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
        proj = left_kernel_matrix(ExactMatrix.from_rows(m.field, stacked, dx)).sparse_rows()
        if proj:
            dims[x] = len(proj)
            blocks = {y: [{} for _ in proj] for y in nbrs}
            for k, row in enumerate(proj):
                for c, v in row.items():
                    y, i = owner[c]
                    blocks[y][k][i] = v
            for y in nbrs:
                maps[(y, x)] = ExactMatrix.from_rows(m.field, blocks[y], m.dims[y])
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
# Coxeter shift planning
# ---------------------------------------------------------------------------

SHIFT_SAFETY_BOUND = 64


@dataclass(frozen=True)
class ReflectionPlan:
    """Shift exponent and intermediate vector for the outer-window case."""

    l: int
    window_case: str          # cover-case | thin-case
    intermediate: DimVector   # (u_l, v_l)


def coxeter_shift_plan(r: int, a: int, b: int) -> ReflectionPlan:
    """Smallest l >= 1 with Phi^l (a,b) inside the constructible window.

    Precondition: (a, b) lies strictly above the window, i.e.
    (r-1)b > (r^2-r-1)a, and q(a,b) <= 0.  The window test and the
    boundary dispatch (v = (r-1)u+1 resolves to the thin case) are pure
    integer arithmetic.
    """
    if tits_form(r, (a, b)) > 0:
        raise ValueError("shift planning needs q(a,b) <= 0")
    if (r - 1) * b <= (r * r - r - 1) * a:
        raise ValueError("(a,b) already lies inside the constructible window")
    u, v = a, b
    for l in range(1, SHIFT_SAFETY_BOUND + 1):
        u, v = coxeter_apply(r, (u, v), 1)
        if u < v and (r - 1) * v <= (r * r - r - 1) * u:
            case = "thin-case" if v <= (r - 1) * u + 1 else "cover-case"
            return ReflectionPlan(l, case, DimVector(u, v))
    raise AssertionError("no shift exponent within the safety bound")


# ---------------------------------------------------------------------------
# preprojective witnesses on the cover
# ---------------------------------------------------------------------------

def build_preprojective(r: int, a: int, b: int, field: Field = QQ) -> TreeRep:
    """A lift to the cover of the indecomposable with real root (a, b), 0 <= a < b.

    By Vieta jumping every such root lies on the chain P_0 = (0,1),
    P_1 = (1,r), P_i = r P_{i-1} - P_{i-2}, and Phi maps P_i to P_{i-2}.
    The walk steps (a, b) <- Phi(a, b), l times, while a > 0 and
    b > (r-1)a + 1; ``tau_inverse_tree`` l times then lifts the seed: the
    thin path where the walk stops, or the simple at the sink (1,) if a = 0.
    With e_i = b_i - (r-1)a_i, e_0 = e_1 = 1 and e_i = r e_{i-1} - e_{i-2}.
    For r >= 3, e_i >= 2 when i >= 2: the walk stops at P_0 or at P_1, whose
    thin path is the star, after idx // 2 steps.  For r = 2, e_i = 1: each
    (n, n+1) with n >= 1 is its own seed, a connected thin tree whose maps
    are all 1, hence Inj and a brick.  Push-down along the Galois cover keeps
    indecomposability (Gabriel 1981; Bongartz and Gabriel 1982).
    """
    if tits_form(r, (a, b)) != 1 or not 0 <= a < b:
        raise ValueError(f"({a},{b}) is not a preprojective root")
    l = 0
    while a > 0 and b > (r - 1) * a + 1:
        a, b = coxeter_apply(r, (a, b), 1)
        l += 1
    tree = thin_path_rep(r, a, b, field) if a > 0 else TreeRep(r, {(1,): 1}, {}, field)
    for _ in range(l):
        tree = tau_inverse_tree(tree)
    return tree
