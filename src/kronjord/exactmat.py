"""Exact scalar arithmetic and dense matrix kernels.

Scalars are either arbitrary-precision rationals (``fractions.Fraction``)
or elements of a prime field GF(p).  Matrices are dense, immutable after
construction, and every operation (rank, kernel, solve, block assembly)
is carried out by exact Gaussian elimination -- no floating point ever
enters the computation.

Rational elimination internally clears denominators row by row and works
on integer rows stored as sparse dicts; this keeps coefficient growth in
check (rows are re-normalized by their gcd after every combination) and
makes the large, very sparse intertwining systems cheap.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# fields and scalars
# ---------------------------------------------------------------------------

class GFElement:
    """Element of a prime field, with plain operator arithmetic."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> "GFElement":
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else GFElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else GFElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else GFElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else GFElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.v * pow(o.v, -1, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"GF{self.p}({self.v})"


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
    """The field of rationals; the default ground field."""

    name = "Q"

    def element(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def to_str(self, x: Fraction) -> str:
        # canonical reduced form; plain integer when the denominator is 1
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def to_json(self) -> dict:
        return {"type": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p; used for exhaustive micro-searches."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def element(self, x) -> GFElement:
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise ValueError("mixed prime fields")
            return x
        if isinstance(x, int):
            return GFElement(x, self.p)
        if isinstance(x, Fraction) and x.denominator == 1:
            return GFElement(x.numerator, self.p)
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def parse(self, s: str) -> GFElement:
        return GFElement(int(s), self.p)

    def to_str(self, x: GFElement) -> str:
        return str(x.v)

    @property
    def zero(self) -> GFElement:
        return GFElement(0, self.p)

    @property
    def one(self) -> GFElement:
        return GFElement(1, self.p)

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
Scalar = Union[Fraction, GFElement]


def require_fields(d, fields: Sequence[str], what: str) -> None:
    """Raise a ValueError naming every key of ``fields`` missing from the JSON object ``d``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [f for f in fields if f not in d]
    if missing:
        raise ValueError(f"{what} is missing field(s) " + ", ".join(repr(f) for f in missing))


def field_from_json(d: dict) -> Field:
    require_fields(d, ("type",), "field descriptor")
    if d["type"] == "Q":
        return QQ
    if d["type"] == "GF":
        return GF(int(d["p"]))
    raise ValueError(f"unknown field descriptor {d!r}")


# ---------------------------------------------------------------------------
# sparse integer elimination engine (rational matrices)
# ---------------------------------------------------------------------------
#
# Rows are dicts col -> nonzero int.  Row combinations cross-multiply and
# re-normalize by the gcd, so every intermediate stays an integer row; the
# reduced form is only converted back to rationals during extraction.

def _normalize_int_row(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _combine_int(row: dict, piv: dict, col: int) -> dict:
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
    return _normalize_int_row(out)


def sparse_int_echelon(rows: Iterable[dict], ncols: int) -> list[tuple[int, dict]]:
    """Row echelon form of a system of integer rows.

    Returns the list of (pivot column, row) pairs in increasing column
    order.  Forward elimination only: a pivot row has its support in its
    pivot column and columns to the right, so back-substitution in
    reverse pivot order recovers kernel vectors and solutions.

    Rows are indexed by column: each active row is listed under its
    leading column.  Columns are eliminated left to right, so when column
    c is reached every active row has its support at c or to its right,
    and the rows listed under c are exactly the rows holding c.  A pivot
    step touches only those; each reduced row is listed again under its
    new leading column.  The pivot is the row with the smallest
    (coefficient bit length, row length, input position), small entries
    and short rows first (Markowitz-lite).  The input rows are not
    mutated.
    """
    live = [_normalize_int_row(dict(r)) for r in rows if r]
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
                row = _combine_int(row, piv, col)
                if row:
                    live[i] = row
                    by_lead[min(row)].append(i)
        piv_rows.append((col, piv))
    return piv_rows


def _back_substitute(piv_rows: list[tuple[int, dict]], seed: dict[int, Fraction]) -> dict[int, Fraction]:
    """Complete a partial assignment to a kernel vector of the echelon system.

    ``seed`` fixes the free coordinates; pivot coordinates are filled in
    reverse pivot order.
    """
    x = dict(seed)
    for c, prow in reversed(piv_rows):
        s = Fraction(0)
        for j, v in prow.items():
            if j != c:
                xj = x.get(j)
                if xj:
                    s += v * xj
        if s:
            x[c] = -s / prow[c]
    return x


def sparse_int_kernel(rows: Iterable[dict], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of an integer row system, as rational vectors."""
    piv_rows = sparse_int_echelon(rows, ncols)
    pivot_cols = {c for c, _ in piv_rows}
    zero = Fraction(0)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = _back_substitute(piv_rows, {f: Fraction(1)})
        basis.append([x.get(j, zero) for j in range(ncols)])
    return basis


# ---------------------------------------------------------------------------
# dense generic elimination (prime fields, small matrices)
# ---------------------------------------------------------------------------

def _dense_rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """In-place RREF over any field whose scalars support /, *, -, bool."""
    mat = [list(r) for r in rows]
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
        inv = mat[pr][col]
        mat[pr] = [x / inv for x in mat[pr]]
        for i in range(len(mat)):
            if i != pr and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(mat):
            break
    return mat, pivots


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Dense matrix over Q or GF(p); immutable by convention."""

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field: Field, data: Sequence[Sequence], rows: Optional[int] = None,
                 cols: Optional[int] = None):
        self.field = field
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        self.rows = rows
        self.cols = cols
        self._data = [[field.element(x) for x in r] for r in data]
        for r in self._data:
            if len(r) != cols:
                raise ValueError("ragged rows")
        if len(self._data) != rows:
            raise ValueError("row count mismatch")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, data: Sequence[Sequence]) -> "ExactMatrix":
        return ExactMatrix(field, data)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "ExactMatrix":
        z = field.zero
        return ExactMatrix(field, [[z] * cols for _ in range(rows)], rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "ExactMatrix":
        z, o = field.zero, field.one
        return ExactMatrix(field, [[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    @staticmethod
    def column(field: Field, entries: Sequence) -> "ExactMatrix":
        return ExactMatrix(field, [[x] for x in entries], len(entries), 1)

    # -- basic access ------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        return self._data[i][j]

    @property
    def entries(self) -> tuple:
        """Row-major flat view."""
        return tuple(x for row in self._data for x in row)

    def row_list(self, i: int) -> list:
        return list(self._data[i])

    def to_lists(self) -> list[list[Scalar]]:
        return [list(r) for r in self._data]

    def to_str_lists(self) -> list[list[str]]:
        f = self.field
        return [[f.to_str(x) for x in r] for r in self._data]

    @staticmethod
    def from_str_lists(field: Field, data: Sequence[Sequence[str]], rows: int, cols: int) -> "ExactMatrix":
        parsed = [[field.parse(x) for x in r] for r in data]
        return ExactMatrix(field, parsed, rows, cols)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        if self.rows * self.cols == 0:
            return f"ExactMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(self.field.to_str(x) for x in r) for r in self._data)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(not x for row in self._data for x in row)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return ExactMatrix(self.field,
                           [[x + y for x, y in zip(r, s)] for r, s in zip(self._data, other._data)],
                           self.rows, self.cols)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.element(c)
        return ExactMatrix(self.field, [[c * x for x in r] for r in self._data],
                           self.rows, self.cols)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        z = self.field.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self._data[i]
            acc = out[i]
            for k in range(self.cols):
                x = row[k]
                if not x:
                    continue
                orow = other._data[k]
                for j in range(other.cols):
                    y = orow[j]
                    if y:
                        acc[j] = acc[j] + x * y
        return ExactMatrix(self.field, out, self.rows, other.cols)

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector, returned as a list of scalars."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = [self.field.element(x) for x in vec]
        out = []
        for row in self._data:
            s = self.field.zero
            for x, y in zip(row, v):
                if x and y:
                    s = s + x * y
            out.append(s)
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.field,
                           [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
                           self.cols, self.rows)

    # -- elimination-backed queries -----------------------------------------

    def _int_rows(self) -> list[dict]:
        """Denominator-cleared sparse rows (rational matrices only)."""
        out = []
        for row in self._data:
            den = 1
            for x in row:
                if x:
                    den = den * x.denominator // gcd(den, x.denominator)
            d = {}
            for j, x in enumerate(row):
                if x:
                    d[j] = int(x * den)
            out.append(d)
        return out

    def rank(self) -> int:
        """Dimension of the column space, by exact elimination."""
        if self.rows == 0 or self.cols == 0:
            return 0
        if self.field == QQ:
            return len(sparse_int_echelon(self._int_rows(), self.cols))
        _, pivots = _dense_rref(self._data, self.cols)
        return len(pivots)

    def kernel_basis(self) -> list[list[Scalar]]:
        """Basis of the right null space; empty iff full column rank."""
        if self.cols == 0:
            return []
        if self.rows == 0:
            return [self._unit_vector(j) for j in range(self.cols)]
        if self.field == QQ:
            return sparse_int_kernel(self._int_rows(), self.cols)
        red, pivots = _dense_rref(self._data, self.cols)
        pivset = set(pivots)
        basis = []
        for f in range(self.cols):
            if f in pivset:
                continue
            vec = [self.field.zero] * self.cols
            vec[f] = self.field.one
            for r, c in enumerate(pivots):
                vec[c] = -red[r][f]
            basis.append(vec)
        return basis

    def _unit_vector(self, j: int) -> list:
        vec = [self.field.zero] * self.cols
        vec[j] = self.field.one
        return vec

    def solve(self, b: Sequence) -> Optional[list]:
        """One solution of ``self @ x = b``, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        bvec = [self.field.element(x) for x in b]
        n = self.cols
        if self.field == QQ:
            # augmented column carries -b so that solutions are kernel
            # vectors with last coordinate 1
            rows = []
            for row, rhs in zip(self._data, bvec):
                den = rhs.denominator
                for x in row:
                    if x:
                        den = den * x.denominator // gcd(den, x.denominator)
                d = {j: int(x * den) for j, x in enumerate(row) if x}
                if rhs:
                    d[n] = -int(rhs * den)
                rows.append(d)
            piv = sparse_int_echelon(rows, n + 1)
            if any(c == n for c, _ in piv):
                return None
            x = _back_substitute(piv, {n: Fraction(1)})
            zero = Fraction(0)
            return [x.get(j, zero) for j in range(n)]
        aug = [list(r) + [x] for r, x in zip(self._data, bvec)]
        red, pivots = _dense_rref(aug, n + 1)
        if n in pivots:
            return None
        sol = [self.field.zero] * n
        for r, c in enumerate(pivots):
            sol[c] = red[r][n]
        return sol


# ---------------------------------------------------------------------------
# spec-level operation wrappers
# ---------------------------------------------------------------------------

def rank(m: ExactMatrix) -> int:
    return m.rank()


def kernel_basis(m: ExactMatrix) -> list[list[Scalar]]:
    return m.kernel_basis()


def solve_linear_system(a: ExactMatrix, b: Sequence) -> Optional[list]:
    return a.solve(b)


def block_matrix(blocks: Sequence[Sequence[ExactMatrix]]) -> ExactMatrix:
    """Assemble a matrix from a grid of blocks.

    Blocks in one grid row must share their row count and blocks in one
    grid column their column count; the result has the summed dimensions.
    """
    if not blocks or not blocks[0]:
        raise ValueError("empty block grid")
    field = blocks[0][0].field
    ncols_per = [b.cols for b in blocks[0]]
    out_rows: list[list] = []
    for grid_row in blocks:
        if len(grid_row) != len(ncols_per):
            raise ValueError("ragged block grid")
        h = grid_row[0].rows
        for b, w in zip(grid_row, ncols_per):
            if b.rows != h:
                raise ValueError("row count mismatch inside a block row")
            if b.cols != w:
                raise ValueError("column count mismatch inside a block column")
        for i in range(h):
            row: list = []
            for b in grid_row:
                row.extend(b._data[i])
            out_rows.append(row)
    total_cols = sum(ncols_per)
    return ExactMatrix(field, out_rows, len(out_rows), total_cols)


def vstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    return block_matrix([[m] for m in mats])


def hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    return block_matrix([list(mats)])


def left_kernel_matrix(m: ExactMatrix) -> ExactMatrix:
    """Matrix P with independent rows spanning {w : w m = 0}.

    ker(P) as a map equals the column space of ``m`` exactly when the
    ambient dimensions agree, which is the property cokernel projections
    need.
    """
    vecs = m.transpose().kernel_basis()
    if not vecs:
        return ExactMatrix.zeros(m.field, 0, m.rows)
    return ExactMatrix(m.field, vecs, len(vecs), m.rows)
