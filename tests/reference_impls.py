"""Earlier, slower implementations kept as test-side references.

``reference_end_is_local`` recovers the coordinates of every product of
basis endomorphisms with a full linear solve and forms the trace form
from explicit left-multiplication matrices.  ``reference_sparse_int_echelon``
scans every active row for every column.  ``reference_intertwining_rows``
reads the arrow matrices entry by entry.  The package versions take the
trace form of End acting on the representation itself, with no product
formed, index rows by column and read each arrow once; the tests assert
that both give identical answers.

``kron_tau_inverse`` is the inverse translate on the Kronecker quiver
itself, and ``explicit_p2`` the projective of dimension (1, r) written
down by hand.  The package builds the preprojectives on the universal
cover instead; the tests check its push-downs against these.
``reference_build_preprojective`` is the earlier cover lift: it finds
the chain index in ``preprojective_dim_vectors`` and sweeps the simple or
the star idx // 2 times, where the package walks Phi down to a thin root
(at r = 2 the root itself); the tests assert identical trees for r >= 3
and isomorphic push-downs at r = 2.  ``reference_preprojective_walk`` is
that walk's own loop, and ``coxeter_shift_plan`` the earlier shift
planner, with its ``ReflectionPlan`` and a step bound of 64 that is too
small for some shift vectors; the package has one walk, ``descend``, for
both, and the tests assert identical step counts and landings.

The cover constructions keep their earlier forms here as well:
``reference_tau_inverse_tree`` reflects one vertex at a time (one tree
per vertex), ``reference_source_regular_growth`` rescans every sink at
every growth step, and ``reference_build_indecomposable_tree_rep``
recurses once per peeled source, each time scanning for the deepest
peelable one.  The package builds each in one pass;
the tests assert identical trees, quivers and construction traces.

``reference_probe_points`` draws the sampled probe plan through
``random.randint`` one list at a time; the package draws the same points
into the tuples it caches, and the tests assert identical plans.
``reference_pencil_rank`` ranks a pencil of a representation's arrows
whole, with the elimination engine; the package ranks every probe point
from one peel of the union of the arrows, read along the shorter side,
and the tests assert identical ranks.

``reference_sparse_int_kernel`` eliminates every system whole with the
engine and back-substitutes once per free column
(``reference_back_substitute``, also behind ``reference_solve``).  The
package reads a difference system's kernel off its union-find, and any
other system's off the peel that ranks it, with only the core left going
to the engine, back-substituting every free column in one pass; the tests
assert identical bases, vector for vector and key for key, and identical
solutions.

``reference_from_str_lists``, ``reference_rep_from_json`` and
``reference_tree_from_json`` are the earlier JSON readers, which walk a
file field by field and format each edge's messages as they go; the
package reads a valid file in one pass and walks it only after a check
has failed, and the tests assert the same objects and the same messages
on a fixed list of corrupted fields.

``weyl_reflect``, ``max_cover_b`` and ``preinjective_dim_vectors`` are
closed forms that only the tests use: a simple reflection of a dimension
vector on a tree quiver, the top of the cover window, and the preinjective
dimension vectors as duals of the preprojective ones.
"""

import random
import reprlib
from dataclasses import dataclass
from fractions import Fraction

from kronjord.bgp import reflect_functor_source, tau_inverse_tree
from kronjord.cover import (
    TreeRep,
    _column,
    _is_word,
    edge_color,
    is_source,
    neighbors,
    thin_path_rep,
)
from kronjord.exactmat import (
    QQ,
    ExactMatrix,
    Field,
    _combine_int,
    _normalize_int_row,
    check_arrow_count,
    check_field,
    field_from_json,
    is_count_pair,
    left_kernel_matrix,
    require_fields,
    sparse_int_echelon,
)
from kronjord.kronecker import ALPHA_BOX, DimVector, KroneckerRep, coxeter_apply, tits_form
from kronjord.verify import hom_space


def reference_end_is_local(m):
    """Locality of End(m) by solves for coordinates and an O(nb^4) trace form."""
    endos = hom_space(m, m)
    nb = endos.dim
    if nb == 0:
        return False
    if nb == 1:
        return True
    aM, bM = m.dim
    nvars = aM * aM + bM * bM
    cols = []
    for f1, f2 in endos.basis:
        cols.append([f1[i, j] for i in range(aM) for j in range(aM)]
                    + [f2[p, q] for p in range(bM) for q in range(bM)])
    basis_mat = ExactMatrix(QQ, [[cols[k][v] for k in range(nb)] for v in range(nvars)],
                            nvars, nb)

    def coords(f1, f2):
        target = [f1[i, j] for i in range(aM) for j in range(aM)] \
            + [f2[p, q] for p in range(bM) for q in range(bM)]
        sol = basis_mat.solve(target)
        if sol is None:
            raise AssertionError("endomorphism product escaped the basis span")
        return sol

    left_mult = []
    for f1i, f2i in endos.basis:
        columns = [coords(f1i @ f1j, f2i @ f2j) for f1j, f2j in endos.basis]
        left_mult.append(ExactMatrix(QQ, [[columns[j][k] for j in range(nb)] for k in range(nb)],
                                     nb, nb))
    trace_form = [[Fraction(0)] * nb for _ in range(nb)]
    for i in range(nb):
        for j in range(i, nb):
            prod = left_mult[i] @ left_mult[j]
            tr = sum((prod[k, k] for k in range(nb)), Fraction(0))
            trace_form[i][j] = tr
            trace_form[j][i] = tr
    return ExactMatrix(QQ, trace_form, nb, nb).rank() == 1


def reference_sparse_int_echelon(rows, ncols):
    """Fraction-free forward elimination that scans all active rows per column."""
    active = [_normalize_int_row(dict(r)) for r in rows if r]
    piv_rows = []
    for col in range(ncols):
        if not active:
            break
        best = None
        for i, row in enumerate(active):
            if col in row:
                w = (abs(row[col]).bit_length(), len(row))
                if best is None or w < best[0]:
                    best = (w, i)
        if best is None:
            continue
        piv = active.pop(best[1])
        new_active = []
        for r in active:
            if col in r:
                r = _combine_int(r, piv, col, _normalize_int_row)
            if r:
                new_active.append(r)
        active = new_active
        piv_rows.append((col, piv))
    return piv_rows


def reference_intertwining_rows(m, n):
    """Rows of f2 M(g_i) - N(g_i) f1 = 0, reading M(g_i) one entry at a time."""
    aM, bM = m.dim
    aN, bN = n.dim
    nvars = aN * aM + bN * bM
    f2_off = aN * aM
    zero = m.field.zero
    rows = []
    for t in range(m.r):
        A = m.mats[t]   # bM x aM
        B = n.mats[t]   # bN x aN
        for p in range(bN):
            for j in range(aM):
                row = {}
                for q in range(bM):
                    x = A[q, j]
                    if x:
                        row[f2_off + p * bM + q] = x
                for i in range(aN):
                    y = B[p, i]
                    if y:
                        row[i * aM + j] = row.get(i * aM + j, zero) - y
                if row:
                    rows.append(row)
    return rows, nvars


def kron_tau_inverse(m):
    """Inverse translate on the Kronecker quiver via two source reflections.

    Vertex 1 is reflected first (cokernel of the stacked arrow matrices),
    then vertex 2; the arrows end up in their original direction and the
    dimension vector is the inverse Coxeter matrix applied to the input.
    """
    a, b = m.dim
    stacked = ExactMatrix.from_rows(m.field, [row for mat in m.mats
                                              for row in mat.sparse_rows()], a)
    proj1 = left_kernel_matrix(stacked)          # (r*b - rank) x (r*b)
    n1 = proj1.rows
    blocks1 = []
    for j in range(m.r):
        blocks1.append(ExactMatrix(m.field,
                                   [[proj1[i, j * b + k] for k in range(b)] for i in range(n1)],
                                   n1, b))
    stacked2 = ExactMatrix.from_rows(m.field, [row for blk in blocks1
                                               for row in blk.sparse_rows()], b)
    proj2 = left_kernel_matrix(stacked2)         # (r*n1 - rank) x (r*n1)
    n2 = proj2.rows
    mats = []
    for i in range(m.r):
        mats.append(ExactMatrix(m.field,
                                [[proj2[p, i * n1 + k] for k in range(n1)] for p in range(n2)],
                                n2, n1))
    return KroneckerRep(m.r, DimVector(n1, n2), tuple(mats), m.field)


def explicit_p2(r, field: Field = QQ):
    """The projective of dimension (1, r): arrow i is the i-th basis column."""
    mats = []
    for i in range(r):
        col = [[field.one] if j == i else [field.zero] for j in range(r)]
        mats.append(ExactMatrix(field, col, r, 1))
    return KroneckerRep(r, DimVector(1, r), tuple(mats), field)


def preprojective_dim_vectors(r, limit):
    """P1, P2, ... dimension vectors until a component exceeds ``limit``."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    out = []
    prev, cur = DimVector(0, 1), DimVector(1, r)
    while max(prev) <= limit:
        if tits_form(r, prev) != 1:
            raise AssertionError("preprojective recursion left the real roots")
        out.append(prev)
        prev, cur = cur, DimVector(r * cur.a - prev.a, r * cur.b - prev.b)
    return out


def reference_build_preprojective(r, a, b, field=QQ):
    """The cover lift of the preprojective (a, b) by its chain index idx:
    ``tau_inverse_tree`` idx // 2 times on the simple at the sink (1,)
    (even idx) or on the star at the root (odd idx)."""
    if tits_form(r, (a, b)) != 1 or not a < b:
        raise ValueError(f"({a},{b}) is not a preprojective root")
    idx = preprojective_dim_vectors(r, b).index(DimVector(a, b))
    tree = TreeRep(r, {(1,): 1}, {}, field) if idx % 2 == 0 else thin_path_rep(r, 1, r, field)
    for _ in range(idx // 2):
        tree = tau_inverse_tree(tree)
    return tree


def reference_preprojective_walk(r, a, b):
    """The earlier walk of ``build_preprojective``: (a, b) <- Phi(a, b) while
    a > 0 and b > (r-1)a + 1; the step count and the landing."""
    l = 0
    while a > 0 and b > (r - 1) * a + 1:
        a, b = coxeter_apply(r, (a, b), 1)
        l += 1
    return l, DimVector(a, b)


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


def reference_tau_inverse_tree(m):
    """Inverse translate on the cover reflecting one vertex at a time, in address order."""
    first = {v for v in m.dims if is_source(v)}
    for y in m.dims:
        if not is_source(y):
            first.update(neighbors(y, m.r))
    cur = m
    for x in sorted(first):
        cur = reflect_functor_source(cur, x)
    second = {v for v in cur.dims if not is_source(v)}
    for x in cur.dims:
        if is_source(x):
            second.update(neighbors(x, m.r))
    for y in sorted(second):
        cur = reflect_functor_source(cur, y)
    return cur


def reference_source_regular_growth(r, n):
    """Vertex sets of the source-regular quivers with 1..n sources, in growth order.

    Every step re-sorts and re-scans every sink for its degree, then grows
    at the intermediate sink, or else at the (length, address)-least leaf.
    """
    verts = {(), *neighbors((), r)}
    yield frozenset(verts)
    for _ in range(n - 1):
        sinks = sorted(v for v in verts if not is_source(v))
        degree = lambda v: sum(1 for w in neighbors(v, r) if w in verts)
        intermediate = [y for y in sinks if 1 < degree(y) < r]
        if len(intermediate) > 1:
            raise AssertionError("more than one intermediate sink")
        y = intermediate[0] if intermediate else min((v for v in sinks if degree(v) == 1),
                                                     key=lambda v: (len(v), v))
        x = min(w for w in neighbors(y, r) if w not in verts)
        verts.add(x)
        verts.update(neighbors(x, r))
        yield frozenset(verts)


def reference_build_indecomposable_tree_rep(q, alpha, field=QQ, trace=None):
    """Tree witness built by one recursive call per peeled source."""
    if trace is None:
        trace = []
    dims, maps = _reference_tree(set(q.vertices), dict(alpha), q.r, field, trace)
    return TreeRep(q.r, dims, maps, field)


def _reference_tree(vertices, alpha, r, fld, trace):
    degree = lambda v: sum(1 for w in neighbors(v, r) if w in vertices)
    sources = sorted(v for v in vertices if is_source(v))
    if len(sources) == 1:
        x = sources[0]
        if any(alpha[v] != 1 for v in vertices):
            raise ValueError("star case requires the all-ones vector")
        trace.append(f"star@{x}")
        return ({v: 1 for v in vertices},
                {(x, y): ExactMatrix.identity(fld, 1) for y in vertices if y != x})
    for x in sorted(sources, key=lambda v: (len(v), v), reverse=True):   # deepest first
        nbrs = [w for w in neighbors(x, r) if w in vertices]
        if len(nbrs) != r:
            raise ValueError("quiver is not source-regular at a source")
        nonleaf = [y for y in nbrs if degree(y) >= 2]
        if len(nonleaf) == 1:
            break
    else:
        raise AssertionError("no peelable source in a multi-source tree")
    y = nonleaf[0]
    leaves = [w for w in nbrs if w != y]
    t = degree(y)
    rest = vertices - {x, *leaves}
    sub_alpha = {v: alpha[v] for v in rest}
    if alpha[y] == t - 1:
        m = alpha[y]
        sub_alpha[y] = 1
        dims, maps = _reference_tree(rest, sub_alpha, r, fld, trace)
        for j, z in enumerate(sorted(w for w in neighbors(y, r) if w in rest)):
            maps[(z, y)] = _column(fld, m, j)
        dims[y] = m
        maps[(x, y)] = _column(fld, m, None)
        trace.append(f"reflect@{x}->{y}:dim{m}")
    elif alpha[y] <= t - 2:
        dims, maps = _reference_tree(rest, sub_alpha, r, fld, trace)
        maps[(x, y)] = _column(fld, dims[y], 0)
        trace.append(f"extend@{x}->{y}")
    else:
        raise ValueError(f"alpha at {y} violates the sink bound")
    dims[x] = 1
    for w in leaves:
        dims[w] = 1
        maps[(x, w)] = ExactMatrix.identity(fld, 1)
    return dims, maps


def _reference_draw(field, r, rng):
    """Integer representatives of a nonzero vector from the sampling box."""
    p = field.modulus
    while True:
        if p is None:
            vals = [rng.randint(-ALPHA_BOX, ALPHA_BOX) for _ in range(r)]
        else:
            vals = [rng.randint(0, p - 1) for _ in range(r)]
        if any(vals):
            return vals


def reference_probe_points(field, r, samples, seed):
    """The probe plan's integer points: the basis vectors, then seeded randint draws."""
    rng = random.Random(seed)
    out = [[int(j == i) for j in range(r)] for i in range(min(r, samples))]
    while len(out) < samples:
        out.append(_reference_draw(field, r, rng))
    return out


def reference_pencil_rank(m, alpha, p=None):
    """Rank of sum(alpha_t * m.mats[t]) for integer alpha, eliminated whole, over Q or mod ``p``."""
    rows = [{} for _ in range(m.dim.b)]
    for c, mat in zip(alpha, m.mats):
        if c:
            for acc, row in zip(rows, mat.sparse_rows()):
                for j, v in row.items():
                    acc[j] = acc.get(j, 0) + c * v
    return len(sparse_int_echelon(rows, m.dim.a, p))


def reference_back_substitute(piv_rows, seed, p=None):
    """Complete one partial assignment to a kernel vector of the echelon system.

    ``seed`` fixes the free coordinates (elements of Q, or ints mod ``p``);
    pivot coordinates are filled in reverse pivot order.  Over Q each is
    one exact division, an int when it is integral and a ``Fraction``
    otherwise.
    """
    x = dict(seed)
    for c, prow in reversed(piv_rows):
        s = 0
        for j, v in prow.items():
            if j != c:
                xj = x.get(j)
                if xj:
                    s += v * xj
        if s:
            if p is None:
                q, rem = divmod(-s, prow[c])
                x[c] = Fraction(-s, prow[c]) if rem else q
            else:
                x[c] = -s * pow(prow[c], -1, p) % p
    return x


def reference_sparse_int_kernel(rows, ncols, p=None):
    """Kernel basis from the engine's echelon form, back-substituted once per free column."""
    piv_rows = sparse_int_echelon(rows, ncols, p)
    pivot_cols = {c for c, _ in piv_rows}
    return [{j: v for j, v in reference_back_substitute(piv_rows, {f: 1}, p).items() if v}
            for f in range(ncols) if f not in pivot_cols]


def reference_solve(m, b):
    """One solution of ``m @ x = b``, or None, by one back-substitution of the augmented system."""
    n, p = m.cols, m.field.modulus
    rows = [{**row, n: -rhs} if (rhs := m.field.element(x)) else row
            for row, x in zip(m.sparse_rows(), b)]
    piv = sparse_int_echelon(rows, n + 1, p)
    if any(c == n for c, _ in piv):
        return None
    x = reference_back_substitute(piv, {n: m.field.one}, p)
    return [x.get(j, m.field.zero) for j in range(n)]


def weyl_reflect(q, v, vertex):
    """Simple reflection of an integer vector at one vertex.

    The reflected coordinate becomes -v[vertex] + sum of the values at the
    in-quiver neighbors; every other coordinate is unchanged.
    """
    if vertex not in q.vertices:
        raise ValueError(f"{vertex} is not a vertex of the quiver")
    out = dict(v)
    nb = q.neighbors_in(vertex)
    out[vertex] = -v.get(vertex, 0) + sum(v.get(w, 0) for w in nb)
    return out


def max_cover_b(r, a):
    """Largest b reachable on a source-regular quiver with a sources.

    Equals floor((r - 1/(r-1)) a), the top of the window.
    """
    q, s = divmod(a - 1, r - 1)
    return (r - 1) * a + q * (r - 2) + s


def preinjective_dim_vectors(r, limit):
    """I1, I2, ... dimension vectors until a component exceeds ``limit``."""
    return [DimVector(b, a) for a, b in preprojective_dim_vectors(r, limit)]


def reference_from_str_lists(field, data, rows, cols, what="matrix"):
    """The shape, then the entries other than "0", then their types, then their values."""
    if not (isinstance(data, list) and len(data) == rows
            and all(isinstance(r, list) and len(r) == cols for r in data)):
        raise ValueError(f"{what} must be a {rows} x {cols} list of rows, "
                         f"got {reprlib.repr(data)}")
    parse = field.parse
    parsed = [{j: x for j, x in enumerate(r) if x != "0"} for r in data]
    try:
        if not all(type(x) is str for row in parsed for x in row.values()):
            raise ValueError
        parsed = [{j: y for j, x in row.items() if (y := parse(x))} for row in parsed]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} has an entry that is not a scalar string of {field!r}: "
                         f"{reprlib.repr(data)}") from None
    return ExactMatrix._wrap(field, parsed, cols)


def reference_rep_from_json(d):
    """A representation read field by field, each arrow named as it is parsed."""
    require_fields(d, ("r", "dim", "field", "mats"), "representation")
    r, dim, mats = d["r"], d["dim"], d["mats"]
    check_arrow_count(r, "representation")
    field = field_from_json(d["field"])
    check_field(is_count_pair(dim), "representation", "dim",
                "a pair of non-negative integers [a, b]", dim)
    check_field(isinstance(mats, list) and len(mats) == r, "representation", "mats",
                f"a list of r = {r} matrices", mats)
    a, b = dim
    mats = tuple(reference_from_str_lists(field, m, b, a, f"representation 'mats'[{t}]")
                 for t, m in enumerate(mats))
    return KroneckerRep(r, DimVector(a, b), mats, field)


def reference_tree_from_json(d):
    """A tree read field by field: every word checked at each place it is written."""
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
        maps[(t, h)] = reference_from_str_lists(fld, e["mat"], dims[h], dims[t], f"{what} 'mat'")
    return TreeRep(r, dims, maps, fld)
