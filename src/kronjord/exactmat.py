"""Exact scalar arithmetic and sparse matrix kernels.

Scalars are either rationals or elements of a prime field GF(p).  A
rational is a plain int when it is integral and a ``fractions.Fraction``
only when it is not; GF(p) elements are plain ints in ``[0, p)``.
Matrices hold sparse rows, dicts from column to non-zero scalar, and are
immutable after construction; only their JSON strings are dense.  Every
operation (rank, kernel, solve) is carried out by exact Gaussian
elimination -- no floating point ever enters the computation.

There is one elimination engine for both kinds of field: rows are sparse
dicts of field scalars, as a matrix holds them, and ``sparse_int_echelon``
takes the field's modulus (``None`` over Q, ``p`` over GF(p)).  Its entry
is the only place where scalars become elimination integers: over Q each
row is cleared of its own denominators and divided by its gcd, and is
re-normalized by its gcd after every combination, which keeps coefficient
growth in check; over GF(p) every entry is reduced mod p.  The large,
very sparse intertwining systems are cheap in either characteristic.

A system of rows is a ``SparseSystem``, with a ``rank`` and a ``kernel``;
``sparse_int_rank`` and ``sparse_int_kernel`` ask a new one for either.
A difference system, whose rows are all x*u or x*(u - v), takes neither
to the engine: one union-find, found once per system, gives its rank and
its kernel, the same over every field.  For a rank, any other system has
its singleton pivots peeled first, each of which adds 1 to the rank over
any field, and only the core that is left goes to the engine; for a
kernel, it is eliminated whole and back-substituted in one pass for
every free column.  The peel reads only positions, so a pattern peeled
once serves every system whose pattern lies inside it and whose entries
at the pivots are non-zero: the sampled pencil checks peel the union of
the arrows' patterns once per representation.
"""

from __future__ import annotations

import reprlib
from collections import defaultdict
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# fields and scalars
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field of rationals; the default ground field.

    An integral element is a plain int and a non-integral one a reduced
    ``Fraction``, so the witnesses' integer matrices never box a scalar.
    """

    name = "Q"
    modulus = None
    zero = 0
    one = 1

    def element(self, x) -> Scalar:
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def parse(self, s: str) -> Scalar:
        if type(s) is not str:
            raise TypeError(f"expected a scalar string, got {type(s).__name__}")
        # int() takes underscores that Fraction() rejects before Python 3.11;
        # without one, the strings int() accepts are a subset of Fraction's
        if "_" not in s:
            try:
                return int(s)
            except ValueError:
                pass
        return self.element(Fraction(s))

    def to_str(self, x: Scalar) -> str:
        # an int, or a reduced "n/d"
        return str(x)

    def to_json(self) -> dict:
        return {"type": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p; elements are the ints 0, ..., p - 1."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.modulus = p
        self.name = f"GF({p})"

    def element(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator % self.p
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def parse(self, s: str) -> int:
        if type(s) is not str:
            raise TypeError(f"expected a scalar string, got {type(s).__name__}")
        return int(s) % self.p

    def to_str(self, x: int) -> str:
        return str(x)

    def to_json(self) -> dict:
        return {"type": "GF", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


Field = Union[RationalField, PrimeField]
Scalar = Union[Fraction, int]


def require_fields(d, fields: Sequence[str], what: str) -> None:
    """Raise a ValueError naming every key of ``fields`` missing from the JSON object ``d``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [f for f in fields if f not in d]
    if missing:
        raise ValueError(f"{what} is missing field(s) " + ", ".join(repr(f) for f in missing))


def check_field(ok: bool, what: str, name: str, expected: str, value) -> None:
    """Raise a ValueError naming the field ``name`` of ``what`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{what} field {name!r} must be {expected}, got {reprlib.repr(value)}")


def is_count_pair(x) -> bool:
    """True iff the JSON value ``x`` is a pair of non-negative integers."""
    return isinstance(x, list) and len(x) == 2 and all(type(v) is int and v >= 0 for v in x)


# push_down builds an r-tuple of arrows: the bound keeps a file from exhausting memory
MAX_JSON_R = 2**22


def check_arrow_count(r, what: str) -> None:
    """Raise a ValueError naming ``what``'s field 'r' unless it is an integer in 2..MAX_JSON_R."""
    check_field(type(r) is int and r >= 2, what, "r", "an integer >= 2", r)
    check_field(r <= MAX_JSON_R, what, "r", f"at most {MAX_JSON_R}", r)


def field_from_json(d: dict) -> Field:
    require_fields(d, ("type",), "field descriptor")
    if d["type"] == "Q":
        return QQ
    if d["type"] == "GF":
        p = d.get("p")
        if type(p) is not int:
            raise ValueError(f"field descriptor 'p' must be an integer, got {p!r}")
        # trial division is O(sqrt p): the bound keeps a file from stalling the reader
        if not (p < 2**31 and _is_prime(p)):
            raise ValueError(f"field descriptor 'p' must be a prime below 2**31, got {p}")
        return GF(p)
    raise ValueError(f"unknown field descriptor {d!r}")


# ---------------------------------------------------------------------------
# sparse integer elimination engine (Q and GF(p))
# ---------------------------------------------------------------------------
#
# Rows are dicts col -> nonzero int; an input row over Q is cleared of its
# own denominators first, which gives the primitive row that any common
# denominator would.  Row combinations cross-multiply and are then
# normalized: over Q divided by the gcd, so every intermediate stays a
# primitive integer row and the reduced form is only converted back to
# rationals during extraction; over GF(p) reduced mod p.  The
# normalization is chosen once per call from the modulus.

def _normalize_int_row(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _primitive_int_row(row: dict) -> dict:
    """An input row over Q without its zeros, times the lcm of its denominators, over its gcd."""
    row = {c: v for c, v in row.items() if v}
    try:
        return _normalize_int_row(row)
    except TypeError:   # gcd takes ints only: a Fraction is among the entries
        den = lcm(*(v.denominator for v in row.values()))
        return _normalize_int_row({c: v.numerator * (den // v.denominator)
                                   for c, v in row.items()})


def _normalize_mod_row(row: dict, p: int) -> dict:
    return {c: w for c, v in row.items() if (w := v % p)}


def _combine_int(row: dict, piv: dict, col: int, normalize) -> dict:
    """Eliminate ``col`` from ``row`` using pivot row ``piv``; both integer rows."""
    a = piv[col]
    b = row[col]
    out = {}
    for c, v in row.items():
        out[c] = v * a
    for c, v in piv.items():
        w = out.get(c, 0) - v * b
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return normalize(out)


def sparse_int_echelon(rows: Iterable[dict], ncols: int,
                       p: Optional[int] = None) -> list[tuple[int, dict]]:
    """Row echelon form of a system of sparse rows, over Q or modulo a prime ``p``.

    Returns the list of (pivot column, row) pairs in increasing column
    order.  Forward elimination only: a pivot row has its support in its
    pivot column and columns to the right, so back-substitution in
    reverse pivot order recovers kernel vectors and solutions.  Over Q
    the input entries may be Fractions; the pivot rows are ints.  With a
    modulus, the input entries may be any ints (negative, or p and
    above); every returned entry lies in ``[1, p)``.

    Rows are indexed by column: each active row is listed under its
    leading column.  Columns are eliminated left to right, so when column
    c is reached every active row has its support at c or to its right,
    and the rows listed under c are exactly the rows holding c.  A pivot
    step touches only those; each reduced row is listed again under its
    new leading column.  The pivot is the row with the smallest
    (coefficient bit length, row length, input position), small entries
    and short rows first (Markowitz-lite).  Zero entries of the input
    (mod ``p``: multiples of ``p``) are dropped on entry, so none is ever
    a pivot.  The input rows are not mutated.
    """
    normalize = _normalize_int_row if p is None else partial(_normalize_mod_row, p=p)
    live = [row for row in map(_primitive_int_row if p is None else normalize, rows) if row]
    by_lead: defaultdict[int, list[int]] = defaultdict(list)
    for i, row in enumerate(live):
        by_lead[min(row)].append(i)
    piv_rows: list[tuple[int, dict]] = []
    for col in range(ncols):
        if not by_lead:
            break
        listed = by_lead.pop(col, None)
        if listed is None:
            continue
        best = None
        for i in listed:
            row = live[i]
            w = (abs(row[col]).bit_length(), len(row), i)
            if best is None or w < best:
                best = w
        piv = live[best[2]]
        for i in listed:
            row = live[i]
            if row is not piv:
                row = _combine_int(row, piv, col, normalize)
                if row:
                    live[i] = row
                    by_lead[min(row)].append(i)
        piv_rows.append((col, piv))
    return piv_rows


# ---------------------------------------------------------------------------
# difference systems (rank and kernel)
# ---------------------------------------------------------------------------
#
# The End system of a representation with shifted-identity arrows has
# only rows x*u and x*(u - v): a difference system, a graph on the
# columns with an edge u - v for each two-entry row and a ground for each
# one-entry row.  Its rank is the columns touched minus the components,
# plus the grounded components; its kernel is spanned by the indicators
# of the others.  Both are the same over every field, and one union-find
# finds them in near-linear time.  ``echelon_end_dim`` runs the same
# count on an echelon witness's offsets, with no End row built.

def _difference_forest(rows: Sequence[dict], p: Optional[int]):
    """The union-find of a difference system over Q or GF(``p``), or None if it is not one.

    Zero entries (mod ``p``: multiples of ``p``) are skipped.  Each row
    left with two entries x, y at columns u, v and x + y = 0 (mod ``p``)
    joins u and v; each row left with one entry grounds its column.
    Returns ``find``, the number of joins that merged two components and
    the grounded roots; None at the first row with three or more non-zero
    entries, or with two that do not cancel.  The input rows are not mutated.
    """
    parent: dict[int, int] = {}

    def find(u: int) -> int:
        # the root of u's component, halving the path on the way
        while (w := parent.get(u)) is not None:
            g = parent.get(w)
            if g is None:
                return w
            parent[u] = u = g
        return u

    grounded: list[int] = []
    joins = 0
    for row in rows:
        if len(row) > 2:
            row = {c: v for c, v in row.items() if (v % p if p else v)}
            if len(row) > 2:
                return None
        if len(row) == 2:
            (u, x), (v, y) = row.items()
            if p:
                x %= p
                y %= p
            if not (x and y):
                if x or y:
                    grounded.append(u if x else v)
                continue
            if (x + y) % p if p else x + y:
                return None
            u, v = find(u), find(v)
            if u != v:
                parent[u] = v
                joins += 1
        elif row:
            ((u, x),) = row.items()
            if x % p if p else x:
                grounded.append(u)
    return find, joins, {find(u) for u in grounded}


# ---------------------------------------------------------------------------
# singleton peeling (rank only)
# ---------------------------------------------------------------------------
#
# A caller that needs only a rank peels the system first.  Each peeled
# pivot adds exactly 1 to the rank over any field, so no entry is read,
# and the core that is left goes to the engine.  The witnesses are push-
# downs of tree modules, whose pencils and End systems have almost a
# forest as their pattern; a forest peels to an empty core.  A pivot of a
# pattern is still a singleton of any system inside that pattern that is
# non-zero there, so one peel of the union of the arrows' patterns ranks
# every pencil whose pivot entries do not vanish.

def _peel(rows: Sequence[dict]) -> tuple[list[tuple[int, int]], list[dict]]:
    """Singleton pivots of a sparse system, and the core that is left.

    As long as either exists, one of two pivots is taken on the live
    submatrix: a column with a single non-zero entry, whose row is
    dropped; or a row with a single non-zero entry left, which is dropped
    with its column.  Either adds exactly 1 to the rank, over any field
    and whatever the entry, so the rank of ``rows`` is the number of
    pivots plus the rank of the core: the live rows that still meet a
    live column, restricted to the live columns.  Only the positions of
    the entries are read, so every entry must be non-zero.  Returns the
    pivots as (row, column) pairs in the order taken, and the core;
    O(nnz) with degree counters.
    """
    col_rows: defaultdict[int, list[int]] = defaultdict(list)
    for i, row in enumerate(rows):
        for c in row:
            col_rows[c].append(i)
    # a column is live while its degree (live rows holding it) is positive
    col_deg = {c: len(ix) for c, ix in col_rows.items()}
    row_deg = [len(row) for row in rows]
    row_live = [True] * len(rows)
    col_stack = [c for c, k in col_deg.items() if k == 1]
    row_stack = [i for i, k in enumerate(row_deg) if k == 1]
    pivots: list[tuple[int, int]] = []
    while col_stack or row_stack:
        if col_stack:
            c = col_stack.pop()
            if col_deg[c] != 1:
                continue
            i = next(i for i in col_rows[c] if row_live[i])
            row_live[i] = False
            for d in rows[i]:
                k = col_deg[d]
                if k:
                    col_deg[d] = k - 1
                    if k == 2:
                        col_stack.append(d)
        else:
            i = row_stack.pop()
            if not row_live[i] or row_deg[i] != 1:
                continue
            c = next(c for c in rows[i] if col_deg[c])
            row_live[i] = False
            col_deg[c] = 0
            for j in col_rows[c]:
                if row_live[j]:
                    k = row_deg[j] = row_deg[j] - 1
                    if k == 1:
                        row_stack.append(j)
        pivots.append((i, c))
    core = [{c: v for c, v in rows[i].items() if col_deg[c]}
            for i, live in enumerate(row_live) if live and row_deg[i]]
    return pivots, core


# ---------------------------------------------------------------------------
# systems: one rank path and one kernel path
# ---------------------------------------------------------------------------

def _back_substitute(piv_rows: list[tuple[int, dict]], seeds: Sequence[int],
                     p: Optional[int] = None) -> list[dict[int, Scalar]]:
    """For each seed, a free column, the kernel vector that is 1 there and 0 at the others.

    The pivot rows are walked once, in reverse pivot order, each
    coordinate held as a sparse map from seed to non-zero value.  Over Q a
    pivot value is one exact division, an int when it is integral and a
    ``Fraction`` otherwise; mod ``p`` a product with the pivot's inverse.
    Each vector holds its seed, then its pivot coordinates in reverse order.
    """
    out = [{f: 1} for f in seeds]
    coords: dict[int, dict[int, Scalar]] = {f: {k: 1} for k, f in enumerate(seeds)}
    for c, prow in reversed(piv_rows):
        sums: dict[int, Scalar] = {}
        for j, v in prow.items():
            if j != c and (xj := coords.get(j)):
                for k, w in xj.items():
                    sums[k] = sums.get(k, 0) + v * w
        a = prow[c]
        xc = coords[c] = {}
        for k, s in sums.items():
            if p is None:
                q, rem = divmod(-s, a)
                x = Fraction(-s, a) if rem else q
            else:
                x = -s * pow(a, -1, p) % p
            if x:
                xc[k] = out[k][c] = x
    return out


_UNSEEN = object()


class SparseSystem:
    """A system of sparse rows over Q or modulo a prime ``p``, ranked and solved on demand.

    Entries are as ``sparse_int_echelon`` takes them; zero entries (mod
    ``p``: multiples of ``p``) are dropped.  The difference forest is
    looked for once, on the first ``rank`` or ``kernel``, and read by both;
    the rank is kept once found.  A system that is not a difference system
    is eliminated twice, never sharing an echelon: peeled and its core
    echelonized for a rank, echelonized whole and back-substituted for a
    kernel.  The rows are not mutated, and threads may share a system: two
    that race to fill a memo both store the same value.
    """

    __slots__ = ("rows", "ncols", "p", "_forest", "_rank")

    def __init__(self, rows: Iterable[dict], ncols: int, p: Optional[int] = None):
        self.rows = rows if isinstance(rows, list) else list(rows)
        self.ncols, self.p = ncols, p
        self._forest, self._rank = _UNSEEN, None

    def forest(self):
        """``_difference_forest`` of the rows, found on the first call."""
        if self._forest is _UNSEEN:
            self._forest = _difference_forest(self.rows, self.p)
        return self._forest

    def rank(self) -> int:
        """The rank.  A difference system is ranked off its forest, with no
        elimination.  Any other system has its singleton pivots peeled, and
        only the core that is left goes to ``sparse_int_echelon``; an empty
        core never reaches it.  Neither step needs ints.
        """
        if self._rank is not None:
            return self._rank
        forest, p = self.forest(), self.p
        if forest is not None:
            rank = forest[1] + len(forest[2])
        else:
            if p is None:
                rows = [row if all(row.values()) else {c: v for c, v in row.items() if v}
                        for row in self.rows]
            else:
                rows = [row if all(v % p for v in row.values()) else _normalize_mod_row(row, p)
                        for row in self.rows]
            pivots, core = _peel(rows)
            rank = len(pivots) + (len(sparse_int_echelon(core, self.ncols, p)) if core else 0)
        self._rank = rank
        return rank

    def kernel(self) -> list[dict]:
        """Basis of the right kernel.

        Each basis vector is a dict column -> non-zero entry, 1 at its own
        free column, its first key, and 0 at every other free column, which
        makes the basis unique; the pivot columns follow in decreasing order.
        Entries are ints, save the non-integral rationals, which are
        ``Fraction``s.  A system that is not a difference system goes to
        ``sparse_int_echelon`` and one ``_back_substitute`` pass.

        A difference system gives the indicator of each component C of its
        forest without a ground (a column no row touches is one), ordered by
        max(C).  That is the engine's basis.  A row meets one component, so
        the column dependencies split over them.  A ground gives C's rows rank
        |C|.  Without one, C's rows are x*(u - v) or zero on C, of rank
        |C| - 1, so C's one dependency is the sum of its columns, of full
        support: left to right, every column of C but max(C) is a pivot and
        max(C) is free, where the indicator is 1; it is 0 at every other free
        column.
        """
        ncols, p = self.ncols, self.p
        forest = self.forest()
        if forest is not None:
            find, _, grounded = forest
            components: dict[int, list[int]] = {}
            for c in range(ncols - 1, -1, -1):
                if (root := find(c)) not in grounded:
                    components.setdefault(root, []).append(c)
            return [dict.fromkeys(cols, 1) for cols in reversed(components.values())]
        piv_rows = sparse_int_echelon(self.rows, ncols, p)
        pivot_cols = {c for c, _ in piv_rows}
        return _back_substitute(piv_rows, [f for f in range(ncols) if f not in pivot_cols], p)


def sparse_int_rank(rows: Iterable[dict], ncols: int, p: Optional[int] = None) -> int:
    """Rank of a system of sparse rows, over Q or modulo a prime ``p``: ``SparseSystem.rank``."""
    return SparseSystem(rows, ncols, p).rank()


def sparse_int_kernel(rows: Iterable[dict], ncols: int, p: Optional[int] = None) -> list[dict]:
    """Basis of the right kernel of a sparse row system, over Q or modulo ``p``:
    ``SparseSystem.kernel``."""
    return SparseSystem(rows, ncols, p).kernel()


# ---------------------------------------------------------------------------
# dense reference elimination (prime fields)
# ---------------------------------------------------------------------------

def _dense_rref(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form modulo ``p`` of a dense integer matrix, and its pivots.

    Nothing in the package calls it: it is the plain reference that the
    tests compare the sparse engine against over GF(p).
    """
    mat = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    pr = 0
    for col in range(ncols):
        sel = None
        for i in range(pr, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[pr], mat[sel] = mat[sel], mat[pr]
        inv = pow(mat[pr][col], -1, p)
        mat[pr] = [x * inv % p for x in mat[pr]]
        for i in range(len(mat)):
            if i != pr and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(mat):
            break
    return mat, pivots


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Matrix over Q or GF(p) held as sparse rows; immutable by convention.

    Each row is a dict from column to non-zero scalar, and the rows are
    kept in a list.  Every constructor reduces each entry into the field
    (over GF(p), into ``[0, p)``) and drops the zeros, so equal matrices
    have equal rows.  Only the JSON strings are written out densely.
    """

    __slots__ = ("field", "rows", "cols", "_rows")

    def __init__(self, field: Field, data: Sequence[Sequence], rows: Optional[int] = None,
                 cols: Optional[int] = None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        if len(data) != rows:
            raise ValueError("row count mismatch")
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        element = field.element
        self.field, self.rows, self.cols = field, rows, cols
        self._rows = [{j: y for j, x in enumerate(r) if (y := element(x))} for r in data]

    @staticmethod
    def from_rows(field: Field, rows: Sequence[dict], cols: int) -> "ExactMatrix":
        """The matrix whose row i holds ``rows[i]``, a dict column -> scalar; zeros allowed."""
        if any(r and (min(r) < 0 or max(r) >= cols) for r in rows):
            raise ValueError(f"column index outside 0..{cols - 1}")
        element = field.element
        return ExactMatrix._wrap(field, [{j: y for j, x in r.items() if (y := element(x))}
                                         for r in rows], cols)

    @staticmethod
    def _wrap(field: Field, rows: list[dict], cols: int) -> "ExactMatrix":
        """The matrix holding ``rows`` as they are: reduced, non-zero entries in 0..cols-1."""
        m = ExactMatrix.__new__(ExactMatrix)
        m.field, m.rows, m.cols, m._rows = field, len(rows), cols, rows
        return m

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix.from_rows(field, [{}] * rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "ExactMatrix":
        return ExactMatrix.from_rows(field, [{i: field.one} for i in range(n)], n)

    # -- basic access ------------------------------------------------------

    def sparse_rows(self) -> list[dict]:
        """The rows, each a dict column -> non-zero scalar; read-only."""
        return self._rows

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        if not -self.cols <= j < self.cols:
            raise IndexError("column index out of range")
        return self._rows[i].get(j % self.cols, self.field.zero)

    def to_str_lists(self) -> list[list[str]]:
        to_str = self.field.to_str
        out = [[to_str(self.field.zero)] * self.cols for _ in self._rows]
        for strs, row in zip(out, self._rows):
            for j, x in row.items():
                strs[j] = to_str(x)
        return out

    @staticmethod
    def from_str_lists(field: Field, data: Sequence[Sequence[str]], rows: int, cols: int,
                       what: str = "matrix") -> "ExactMatrix":
        """Parse rows of scalar strings; a ValueError names ``what`` on a bad shape or entry.

        Only the entries other than ``"0"`` are parsed, and only the
        non-zeros among them are kept.
        """
        if not (isinstance(data, list) and len(data) == rows
                and all(isinstance(r, list) and len(r) == cols for r in data)):
            raise ValueError(f"{what} must be a {rows} x {cols} list of rows, "
                             f"got {reprlib.repr(data)}")
        parse = field.parse
        try:
            parsed = [{j: y for j, x in enumerate(r) if x != "0" and (y := parse(x))}
                      for r in data]
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"{what} has an entry that is not a scalar string of {field!r}: "
                             f"{reprlib.repr(data)}") from None
        # parse returns reduced scalars, and enumerate only columns in range
        return ExactMatrix._wrap(field, parsed, cols)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(frozenset, map(dict.items, self._rows)))))

    def __repr__(self):
        if self.rows * self.cols == 0:
            return f"ExactMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(r) for r in self.to_str_lists())
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(self._rows)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        if self.field != other.field:
            raise ValueError("ground fields differ")
        out = [dict(r) for r in self._rows]
        for acc, row in zip(out, other._rows):
            for j, y in row.items():
                acc[j] = acc.get(j, 0) + y
        return ExactMatrix.from_rows(self.field, out, self.cols)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.element(c)
        return ExactMatrix.from_rows(self.field, [{j: c * x for j, x in r.items()}
                                                  for r in self._rows], self.cols)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        if self.field != other.field:
            raise ValueError("ground fields differ")
        out = []
        for row in self._rows:
            acc: dict = {}
            for k, x in row.items():
                for j, y in other._rows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append(acc)
        return ExactMatrix.from_rows(self.field, out, other.cols)

    def transpose(self) -> "ExactMatrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                out[j][i] = x
        return ExactMatrix._wrap(self.field, out, self.rows)

    # -- elimination-backed queries -----------------------------------------

    def rank(self) -> int:
        """Dimension of the column space, by exact elimination."""
        return sparse_int_rank(self._rows, self.cols, self.field.modulus)

    def solve(self, b: Sequence) -> Optional[list]:
        """One solution of ``self @ x = b``, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        n = self.cols
        p = self.field.modulus
        # the augmented column carries -b, so that solutions are kernel
        # vectors with last coordinate 1
        rows = [{**row, n: -rhs} if (rhs := self.field.element(x)) else row
                for row, x in zip(self._rows, b)]
        piv = sparse_int_echelon(rows, n + 1, p)
        if any(c == n for c, _ in piv):
            return None
        (x,) = _back_substitute(piv, [n], p)
        return [x.get(j, self.field.zero) for j in range(n)]


def left_kernel_matrix(m: ExactMatrix) -> ExactMatrix:
    """Matrix P with independent rows spanning {w : w m = 0}.

    ker(P) as a map equals the column space of ``m`` exactly when the
    ambient dimensions agree, which is the property cokernel projections
    need.
    """
    return ExactMatrix.from_rows(m.field, sparse_int_kernel(m.transpose().sparse_rows(), m.rows,
                                                            m.field.modulus), m.rows)
