"""The universal cover of the Kronecker quiver and its tree representations.

Vertices of the cover are addressed by reduced words over the colors
{1..r}: the neighbor of a vertex via color c is obtained by appending c,
or by deleting a trailing c.  Even-length addresses are sources, odd ones
sinks, which fixes the bipartite orientation and a canonical covering
onto the r-Kronecker quiver (color c edges lie over arrow c).

This module grows sources breadth first from the root, and on them the
source-regular subquivers and the thin zigzags centred on the root; the
dimension vectors placing the excess on the distinguished sinks, the
indecomposable tree representations realizing them, and the push-down
functor folding a tree representation onto the Kronecker quiver.
Push-down bases are ordered by address so every construction is
bit-reproducible.  A tree file is read in one pass, the constructor's
checks plus the JSON types and duplicates; only once one fails is it
walked field by field, to name the first bad field.
"""

from __future__ import annotations

import json
import operator
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from itertools import chain, starmap
from types import MappingProxyType
from typing import Mapping, Optional

from .exactmat import (QQ, ExactMatrix, Field, check_arrow_count, check_field, field_from_json,
                       require_fields)
from .kronecker import DimVector, KroneckerRep

Address = tuple[int, ...]
Edge = tuple[Address, Address]


# ---------------------------------------------------------------------------
# address arithmetic
# ---------------------------------------------------------------------------

def is_reduced(addr: Address) -> bool:
    return not any(map(operator.eq, addr, addr[1:]))


def is_source(addr: Address) -> bool:
    return len(addr) % 2 == 0


def neighbor_via(addr: Address, color: int) -> Address:
    """Step along the edge of the given color."""
    if addr and addr[-1] == color:
        return addr[:-1]
    return addr + (color,)


def neighbors(addr: Address, r: int) -> list[Address]:
    return [neighbor_via(addr, c) for c in range(1, r + 1)]


def edge_color(x: Address, y: Address) -> int:
    """Color of the tree edge between two adjacent vertices."""
    longer = x if len(x) > len(y) else y
    shorter = y if longer is x else x
    if len(longer) != len(shorter) + 1 or longer[:-1] != shorter:
        raise ValueError(f"{x} and {y} are not adjacent")
    return longer[-1]


# ---------------------------------------------------------------------------
# finite subquivers of the cover
# ---------------------------------------------------------------------------

def _check_addresses(addrs, r: int) -> None:
    """Raise ValueError unless every address is a reduced word over the colors 1..r.

    Only the few distinct colors in use are checked, never all of 1..r.
    """
    bad = {c for c in set().union(*addrs) if type(c) is not int or not 1 <= c <= r}
    for v in addrs:
        if not is_reduced(v):
            raise ValueError(f"address {v} is not reduced")
        if bad and not bad.isdisjoint(v):
            raise ValueError(f"address {v} uses colors outside 1..{r}")


@dataclass(frozen=True)
class TreeQuiver:
    """A finite connected subquiver of the cover, induced by its vertex set."""

    r: int
    vertices: frozenset[Address]
    _degree: Mapping[Address, int] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("r must be at least 2")
        _check_addresses(self.vertices, self.r)
        degree = {v: len(self.neighbors_in(v)) for v in self.vertices}
        object.__setattr__(self, "_degree", MappingProxyType(degree))
        # the cover is a tree, so the induced subquiver is a forest: connected
        # exactly when it has |V| - 1 edges
        if self.vertices and sum(degree.values()) != 2 * (len(self.vertices) - 1):
            raise ValueError("vertex set is not connected in the tree")

    def sources(self) -> list[Address]:
        return sorted(v for v in self.vertices if is_source(v))

    def sinks(self) -> list[Address]:
        return sorted(v for v in self.vertices if not is_source(v))

    def neighbors_in(self, v: Address) -> list[Address]:
        return [w for w in neighbors(v, self.r) if w in self.vertices]

    def degree(self, v: Address) -> int:
        return self._degree[v]

    def is_source_regular(self) -> bool:
        return all(d == self.r for v, d in self._degree.items() if is_source(v))


def _first_sources(r: int, n: int) -> list[Address]:
    """The first n sources of the cover in (length, address) order, breadth first.

    Each source past the root is a grandchild of an earlier one, so the
    list is its own queue.  At r = 2 they form the zigzag centred on the
    root, so the longest address has length at most n.
    """
    sources: list[Address] = [()]
    for x in sources:   # never runs dry: every source has (r-1)^2 >= 1 grandchildren
        if len(sources) >= n:
            break
        sources.extend(x + (c, d) for c in range(1, r + 1) if x[-1:] != (c,)
                       for d in range(1, r + 1) if d != c)
    return sources[:n]


def build_source_regular(r: int, n: int) -> TreeQuiver:
    """A source-regular subquiver with n sources and n(r-1)+1 sinks.

    The sources are ``_first_sources(r, n)`` and the vertices are they and
    their neighbors.  The children of a sink are consecutive in this
    order, so at most one sink has degree strictly between 1 and r; every
    address has length O(log n) for r >= 3 and at most n + 1 for r = 2.
    """
    if n < 1:
        raise ValueError("need at least one source")
    sources = _first_sources(r, n)
    verts = {w for x in sources for w in neighbors(x, r)}
    verts.update(sources)
    return TreeQuiver(r, frozenset(verts))


def build_root_vector(q: TreeQuiver, a: int, b: int) -> dict[Address, int]:
    """Dimension vector with value 1 at sources and ordinary sinks and
    1 + budget at the distinguished sinks, summing to b over the sinks.

    The excess b - (r-1)a - 1 is distributed greedily, each sink y taking
    at most deg(y) - 2: the full-degree sinks first, in address order, then
    the intermediate sink.  The window guarantees the budgets suffice.
    """
    r = q.r
    if len(q.sources()) != a:
        raise ValueError("quiver does not have a sources")
    if not q.is_source_regular():
        raise ValueError("quiver is not source-regular")
    if not ((r - 1) * a + 1 <= b and (r - 1) * b <= (r * r - r - 1) * a):
        raise ValueError(f"b={b} outside the window [(r-1)a+1, (r - 1/(r-1))a]")
    sinks = q.sinks()
    full = [y for y in sinks if q.degree(y) == r]
    inter = [y for y in sinks if 1 < q.degree(y) < r]
    if len(inter) > 1:
        raise ValueError("quiver has more than one intermediate sink")
    excess = b - (r - 1) * a - 1
    alpha = dict.fromkeys(q.vertices, 1)
    for y in full + inter:
        take = min(excess, q.degree(y) - 2)
        alpha[y] += take
        excess -= take
    if excess:
        raise AssertionError("budget distribution failed")
    return alpha


# ---------------------------------------------------------------------------
# tree representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeRep:
    """A finitely supported representation of the cover.

    ``dims`` records the nonzero vertex dimensions; ``maps`` is keyed by
    (tail, head) in the actual orientation of each edge, both vertices in
    ``dims``, and holds matrices of shape dim(head) x dim(tail).  Builders
    produce the canonical bipartite orientation (tails are sources);
    reflection functors flip edges at the reflected vertex.
    """

    r: int
    dims: Mapping[Address, int] = dc_field(default_factory=dict)
    maps: Mapping[Edge, ExactMatrix] = dc_field(default_factory=dict)
    field: Field = QQ

    def __post_init__(self):
        # read-only views of private copies make the value immutable, hence hashable
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        object.__setattr__(self, "maps", MappingProxyType(dict(self.maps)))
        for v, d in self.dims.items():
            if d <= 0:
                raise ValueError(f"dims must list only positive dimensions, got {d} at {v}")
        _check_addresses(self.dims, self.r)
        for (t, h), m in self.maps.items():
            edge_color(t, h)  # validates adjacency
            if t not in self.dims or h not in self.dims:
                raise ValueError(f"map at {t}->{h} joins a vertex outside dims")
            if (m.rows, m.cols) != (self.dims[h], self.dims[t]):
                raise ValueError(f"map at {t}->{h} has shape {(m.rows, m.cols)}")
            if m.field != self.field:
                raise ValueError(f"map at {t}->{h} is over {m.field!r}, not the tree's "
                                 f"{self.field!r}")

    def __hash__(self):
        return hash((self.r, frozenset(self.dims.items()), frozenset(self.maps.items()),
                     self.field))

    def support_sources(self) -> list[Address]:
        return sorted(v for v in self.dims if is_source(v))

    def support_sinks(self) -> list[Address]:
        return sorted(v for v in self.dims if not is_source(v))

    def reversed_edge(self) -> Optional[Edge]:
        """The first edge in ``maps`` that runs from a sink to a source, or None."""
        return next(((t, h) for t, h in self.maps if not is_source(t)), None)

    def to_json(self) -> dict:
        verts = [{"addr": list(v), "dim": d} for v, d in sorted(self.dims.items())]
        edges = []
        for (t, h), m in sorted(self.maps.items()):
            edges.append({
                "src": list(t),
                "dst": list(h),
                "color": edge_color(t, h),
                "mat": m.to_str_lists(),
            })
        out = {"r": self.r, "vertices": verts, "edges": edges}
        if self.field != QQ:
            out["field"] = self.field.to_json()
        return out

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @staticmethod
    def from_json(d: dict) -> "TreeRep":
        """Read a tree in one pass; once a check fails, ``_read_tree_fields`` names the field.

        The constructor makes the structural checks (words, adjacency,
        membership, shapes).  The pass adds only duplicates, each given
        ``color`` and the JSON types, over all words at once: ``True`` and
        ``1.0`` equal ``1``, so membership is no type check.
        """
        try:
            r, verts, edges = d["r"], d["vertices"], d["edges"]
            check_arrow_count(r, "tree")
            fld = field_from_json(d["field"]) if "field" in d else QQ
            addrs = [v["addr"] for v in verts]
            srcs, dsts = [e["src"] for e in edges], [e["dst"] for e in edges]
            dims = dict(zip(map(tuple, addrs), [v["dim"] for v in verts]))
            maps = {(t, h): ExactMatrix.from_str_lists(fld, e["mat"], dims[h], dims[t])
                    for e, t, h in zip(edges, map(tuple, srcs), map(tuple, dsts))}
            tree = TreeRep(r, dims, maps, fld)
            words = addrs + srcs + dsts
            if (len(dims) == len(verts) and len(maps) == len(edges)
                    and {type(d), *map(type, verts), *map(type, edges)} <= {dict}
                    and type(verts) is type(edges) is list and set(map(type, words)) <= {list}
                    and set(map(type, chain.from_iterable(words))) <= {int}
                    and set(map(type, dims.values())) <= {int}
                    and all(type(c := e.get("color", k)) is int and c == k
                            for e, k in zip(edges, starmap(edge_color, maps)))):
                return tree
        except (LookupError, TypeError, ValueError):   # the walk names what failed
            pass
        return _read_tree_fields(d)


def _read_tree_fields(d) -> TreeRep:
    """Read a tree field by field, in file order; a ValueError names the first bad one."""
    require_fields(d, ("r", "vertices", "edges"), "tree")
    r, verts, edges = d["r"], d["vertices"], d["edges"]
    check_arrow_count(r, "tree")
    check_field(isinstance(verts, list), "tree", "vertices", "a list", verts)
    check_field(isinstance(edges, list), "tree", "edges", "a list", edges)
    word = f"a list of colors 1..{r}, no two neighbors equal"
    for v in verts:
        require_fields(v, ("addr", "dim"), "tree vertex")
        check_field(_is_word(v["addr"], r), "tree vertex", "addr", word, v["addr"])
        check_field(type(v["dim"]) is int and v["dim"] > 0, "tree vertex", "dim",
                    "an integer >= 1", v["dim"])
    for e in edges:
        require_fields(e, ("src", "dst", "mat"), "tree edge")
        for end in ("src", "dst"):
            check_field(_is_word(e[end], r), "tree edge", end, word, e[end])
    fld = field_from_json(d["field"]) if "field" in d else QQ
    dims = {}
    for v in verts:
        addr = tuple(v["addr"])
        if addr in dims:
            raise ValueError(f"tree vertex 'addr' {list(addr)} appears twice")
        dims[addr] = v["dim"]
    maps = {}
    for e in edges:
        t, h = tuple(e["src"]), tuple(e["dst"])
        what = f"tree edge {list(t)} -> {list(h)}"
        if (t, h) in maps:
            raise ValueError(f"{what} appears twice")
        try:
            color = edge_color(t, h)
        except ValueError:
            raise ValueError(f"tree edge field 'dst' must be adjacent to 'src' {list(t)}, "
                             f"got {list(h)}") from None
        for end, v in (("src", t), ("dst", h)):
            check_field(v in dims, "tree edge", end, "a vertex listed in 'vertices'", list(v))
        if "color" in e:
            check_field(type(e["color"]) is int and e["color"] == color, "tree edge", "color",
                        f"{color}, the color of {list(t)} -> {list(h)}", e["color"])
        maps[(t, h)] = ExactMatrix.from_str_lists(fld, e["mat"], dims[h], dims[t],
                                                  f"{what} 'mat'")
    return TreeRep(r, dims, maps, fld)


def _is_word(x, r: int) -> bool:
    """True iff the JSON value ``x`` is a reduced word over the colors 1..r, as
    addresses are written.

    Addresses can be long, so each entry is read in C only: its type (no
    bool or float), then its value among the few distinct ones, then its
    neighbor.
    """
    return (isinstance(x, list) and set(map(type, x)) <= {int}
            and all(1 <= c <= r for c in set(x)) and is_reduced(x))


def _column(fld: Field, m: int, j: Optional[int]) -> ExactMatrix:
    """Standard basis column e_j of height m, or the all-ones column if j is None."""
    return ExactMatrix.from_rows(fld, [{0: fld.one} if j in (None, i) else {} for i in range(m)], 1)


def _validate_alpha(q: TreeQuiver, alpha: dict[Address, int]) -> None:
    if set(alpha) != set(q.vertices):
        raise ValueError("alpha must be supported on the whole quiver")
    for x in q.sources():
        if alpha[x] != 1:
            raise ValueError(f"alpha must be 1 at every source, got {alpha[x]} at {x}")
    for y in q.sinks():
        bound = max(1, q.degree(y) - 1)
        if not 1 <= alpha[y] <= bound:
            raise ValueError(f"alpha at sink {y} must lie in 1..{bound}, got {alpha[y]}")


def build_indecomposable_tree_rep(q: TreeQuiver, alpha: dict[Address, int],
                                  field: Field = QQ,
                                  trace: Optional[list[str]] = None) -> TreeRep:
    """Indecomposable tree representation with dimension vector alpha.

    Build the star of the shallowest source with identity maps, then
    attach every other source x in (length, address) order to its parent
    sink y = x[:-1] and to its leaves.  This undoes a peel of the sources
    deepest first, and every such peel is legal: the shallowest vertex of
    a connected subquiver is an ancestor of all the others, so when x is
    peeled its deeper sources are gone and its child sinks are leaves,
    while y still reaches a shallower vertex (its own parent, or the last
    source left under it) and has degree n + 1 >= 2, n the number of y's
    neighbors placed before x.  If y then carries the maximal value n,
    the quiver left behind gets value 1 at y, and x regrows y to a
    coordinate frame (standard basis columns on the placed edges, by
    address, the all-ones column on x); any endomorphism fixing those
    lines is scalar, which is what forces locality.  The value at y is
    alpha[y] until its first frame in peel order, at n = alpha[y], and 1
    after it, so y is regrown exactly when n is 1 or alpha[y]; otherwise
    x maps onto the first basis vector at y.  A frame at n = 1 is that
    same inclusion, named as a frame in the construction trace.

    The endomorphism algebra of the result is verified downstream; the
    builder itself only guarantees the dimension vector and injectivity
    of every edge map.
    """
    _validate_alpha(q, alpha)
    if not q.is_source_regular():
        raise ValueError("quiver is not source-regular at a source")
    if trace is None:
        trace = []
    r = q.r
    order = sorted(q.sources(), key=len)   # (length, address): q.sources() is sorted
    root = order[0]
    one = ExactMatrix.identity(field, 1)
    dims = dict.fromkeys([root, *neighbors(root, r)], 1)
    maps = {(root, y): one for y in neighbors(root, r)}
    trace.append(f"star@{root}")
    for x in order[1:]:
        y = x[:-1]
        placed = sorted(w for w in neighbors(y, r) if w in dims)
        n = len(placed)
        if n in (1, alpha[y]):
            # regrow y: the rigid frame of n+1 lines in general position
            for j, z in enumerate(placed):
                maps[(z, y)] = _column(field, n, j)
            dims[y] = n
            maps[(x, y)] = _column(field, n, None)
            trace.append(f"reflect@{x}->{y}:dim{n}")
        else:
            maps[(x, y)] = _column(field, dims[y], 0)
            trace.append(f"extend@{x}->{y}")
        dims[x] = 1
        for w in neighbors(x, r):
            if w != y:
                dims[w] = 1
                maps[(x, w)] = one
    return TreeRep(r, dims, maps, field)


def thin_path_rep(r: int, u: int, v: int, field: Field = QQ) -> TreeRep:
    """Thin zigzag representation with push-down dimension vector (u, v).

    The sources are ``_first_sources(2, u)``: the zigzag on colors 1 and 2,
    centred on the root.  The sinks are the zigzag's own u + 1 sinks, then
    the sources' (r-2)u other neighbors, each group in address order, cut
    after the first v.  All maps are 1x1 identities, so every color-1 edge
    map incident to the support is injective.
    """
    if not (1 <= u <= v <= (r - 1) * u + 1):
        raise ValueError(f"need u <= v <= (r-1)u+1, got u={u}, v={v}")
    xs = _first_sources(2, u)
    path = sorted({w for x in xs for w in neighbors(x, 2)})
    others = sorted(w for x in xs for w in neighbors(x, r)[2:])
    dims = dict.fromkeys(xs + (path + others)[:v], 1)
    one = ExactMatrix.identity(field, 1)
    maps = {(x, w): one for x in xs for w in neighbors(x, r) if w in dims}
    return TreeRep(r, dims, maps, field)


# ---------------------------------------------------------------------------
# push-down and exact certificates
# ---------------------------------------------------------------------------

def _offsets(m: TreeRep, vs: list[Address]) -> tuple[dict[Address, int], int]:
    """Where each of ``vs`` starts in the direct sum of their spaces, in order, and its dimension."""
    off, n = {}, 0
    for v in vs:
        off[v], n = n, n + m.dims[v]
    return off, n


def require_bipartite(m: TreeRep, what: str) -> None:
    """Raise ValueError naming the first edge of ``m`` that runs from a sink to a source."""
    edge = m.reversed_edge()
    if edge is not None:
        t, h = edge
        raise ValueError(f"{what} needs the bipartite orientation: edge {list(t)} -> {list(h)} "
                         f"runs from a sink to a source")


def push_down(m: TreeRep) -> KroneckerRep:
    """Fold a tree representation onto the Kronecker quiver.

    Vertex 1 carries the sum over support sources, vertex 2 the sum over
    support sinks, both in address order; arrow c is assembled from all
    color-c edge maps as a block matrix with zero blocks elsewhere.  Only
    the colors in use get rows: every other arrow is one shared zero matrix.
    """
    require_bipartite(m, "push-down")
    col_off, a = _offsets(m, m.support_sources())
    row_off, b = _offsets(m, m.support_sinks())
    rows_by_color = defaultdict(lambda: [{} for _ in range(b)])
    for (x, y), mat in m.maps.items():
        grid = rows_by_color[edge_color(x, y)]
        ro, co = row_off[y], col_off[x]
        for i, row in enumerate(mat.sparse_rows()):
            grid[ro + i].update((co + j, v) for j, v in row.items())
    zero = ExactMatrix.zeros(m.field, b, a)
    mats = tuple(ExactMatrix.from_rows(m.field, rows_by_color[c], a) if c in rows_by_color
                 else zero for c in range(1, m.r + 1))
    return KroneckerRep(m.r, DimVector(a, b), mats, m.field)


def is_inj(m: TreeRep) -> tuple[bool, Optional[tuple[Address, Address, int]]]:
    """Exact equal-kernels certificate for push-downs.

    True iff every cover edge incident to the support has an injective
    map, including edges into sinks outside the support (those maps are
    zero, so any positive source dimension fails).  A failing edge is
    returned as witness.
    """
    require_bipartite(m, "the Inj certificate")
    for x in m.support_sources():
        dx = m.dims[x]
        for c in range(1, m.r + 1):
            y = neighbor_via(x, c)
            mat = m.maps.get((x, y))
            if mat is None:
                return False, (x, y, c)
            if mat.rank() != dx:
                return False, (x, y, c)
    return True, None


def source_regular_bound_check(m: TreeRep) -> tuple[bool, int, dict]:
    """Verify b >= (r-1)a + (max source dimension) on the push-down.

    Preconditions (membership in Inj) are reported in the detail rather
    than asserted; the slack b - (r-1)a - max_source_dim is returned.
    """
    inj, witness = is_inj(m)
    srcs = m.support_sources()
    a = sum(m.dims[x] for x in srcs)
    b = sum(m.dims[y] for y in m.support_sinks())
    max_src = max((m.dims[x] for x in srcs), default=0)
    slack = b - (m.r - 1) * a - max_src
    detail = {"inj": inj, "a": a, "b": b, "max_source_dim": max_src, "slack": slack}
    if not inj:
        detail["inj_witness"] = witness
    return slack >= 0, slack, detail
