"""Exact matrix kernels: frozen examples plus rank-nullity style properties."""

import copy
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import (
    reference_solve,
    reference_sparse_int_echelon,
    reference_sparse_int_kernel,
)

from kronjord import exactmat, kronecker, verify
from kronjord.cover import (
    build_indecomposable_tree_rep,
    build_root_vector,
    build_source_regular,
    push_down,
)
from kronjord.echelon import build_echelon_rep, select_phi
from kronjord.exactmat import (
    GF,
    QQ,
    ExactMatrix,
    SparseSystem,
    _dense_rref,
    _peel,
    left_kernel_matrix,
    sparse_int_echelon,
    sparse_int_kernel,
    sparse_int_rank,
)
from kronjord.kronecker import (
    DimVector,
    KroneckerRep,
    direct_sum,
    pencil,
    probe_alphas,
    tits_form,
)
from kronjord.pipeline import classify, realize
from kronjord.verify import _intertwining_rows, ext_dim, hom_space


def qq(rows):
    return ExactMatrix(QQ, rows)


def column(field, vec):
    """The one-column matrix holding ``vec``."""
    return ExactMatrix(field, [[x] for x in vec], len(vec), 1)


class TestRank:
    def test_zero_matrix(self):
        assert ExactMatrix.zeros(QQ, 3, 2).rank() == 0

    def test_identity(self):
        assert ExactMatrix.identity(QQ, 4).rank() == 4

    def test_proportional_columns(self):
        # hand elimination: second column is twice the first
        assert qq([[1, 2], [2, 4], [3, 6]]).rank() == 1

    def test_empty_shapes(self):
        assert ExactMatrix.zeros(QQ, 0, 5).rank() == 0
        assert ExactMatrix.zeros(QQ, 5, 0).rank() == 0

    def test_fractional_entries(self):
        # det = 1/2 - 1/15 != 0
        m = qq([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]])
        assert m.rank() == 2
        assert qq([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]).rank() == 1

    def test_gf_rank(self):
        f = GF(2)
        m = ExactMatrix(f, [[1, 1], [1, 1]])
        assert m.rank() == 1


class TestKernel:
    """Right kernels, as the rows of ``left_kernel_matrix`` of the transpose."""

    def test_identity_kernel_empty(self):
        assert left_kernel_matrix(ExactMatrix.identity(QQ, 3).transpose()).rows == 0

    def test_zero_matrix_kernel_full(self):
        assert left_kernel_matrix(ExactMatrix.zeros(QQ, 2, 2).transpose()).rows == 2

    def test_single_row(self):
        k = left_kernel_matrix(qq([[1, 1]]).transpose())
        assert k.rows == 1 and k[0, 0] == -k[0, 1] != 0

    def test_kernel_vectors_annihilate(self):
        m = qq([[1, 2, 3], [4, 5, 6]])
        k = left_kernel_matrix(m.transpose())
        assert k.rows == 1 and (m @ k.transpose()).is_zero()

    def test_no_rows(self):
        assert left_kernel_matrix(ExactMatrix.zeros(QQ, 0, 4).transpose()).rows == 4


class TestSolve:
    def test_identity(self):
        assert ExactMatrix.identity(QQ, 2).solve([3, 5]) == [3, 5]

    def test_underdetermined(self):
        sol = qq([[1, 1]]).solve([2])
        assert sol is not None and sol[0] + sol[1] == 2

    def test_inconsistent(self):
        assert qq([[1], [1]]).solve([0, 1]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qq([[1, 1]]).solve([1, 2])

    def test_gf_solve(self):
        f = GF(5)
        m = ExactMatrix(f, [[2, 0], [0, 3]])
        sol = m.solve([1, 1])
        assert m @ column(f, sol) == column(f, [f.one, f.one])


class TestArithmetic:
    def test_matmul(self):
        a = qq([[1, 2], [3, 4]])
        b = qq([[0, 1], [1, 0]])
        assert a @ b == qq([[2, 1], [4, 3]])

    def test_transpose_involution(self):
        m = qq([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m

    def test_left_kernel(self):
        m = qq([[1], [1]])
        p = left_kernel_matrix(m)
        assert p.rows == 1 and (p @ m).is_zero()

    def test_mixed_fields_rejected(self):
        # prime-field scalars are bare ints, so the matrix carries the field
        a = ExactMatrix(GF(5), [[1]])
        for b in (ExactMatrix(GF(7), [[1]]), qq([[1]])):
            for combine in (lambda x, y: x + y, lambda x, y: x @ y):
                with pytest.raises(ValueError, match="ground fields differ"):
                    combine(a, b)

    def test_gf_exactness(self):
        f = GF(7)
        assert f.element(-2) == 5
        # 4 * 3 = 12 = 5 mod 7
        assert ExactMatrix(f, [[4]]).solve([5]) == [3]


class TestSerialization:
    def test_rational_strings(self):
        assert QQ.to_str(Fraction(3, 1)) == "3"
        assert QQ.to_str(3) == "3"
        assert QQ.to_str(Fraction(-7, 2)) == "-7/2"
        assert QQ.parse("-7/2") == Fraction(-7, 2)
        assert QQ.parse("5") == Fraction(5)

    def test_integral_rationals_are_ints(self):
        assert [QQ.element(x) for x in (Fraction(6, 3), True, -4)] == [2, 1, -4]
        assert [type(QQ.element(x)) for x in (Fraction(6, 3), True, Fraction(1, 2))] \
            == [int, int, Fraction]
        assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.parse("5")) is int

    def test_matrix_roundtrip(self):
        m = qq([[Fraction(1, 2), -3], [0, 4]])
        s = m.to_str_lists()
        assert ExactMatrix.from_str_lists(QQ, s, 2, 2) == m

    def test_gf_roundtrip(self):
        f = GF(3)
        m = ExactMatrix(f, [[2, 1], [0, 1]])
        assert ExactMatrix.from_str_lists(f, m.to_str_lists(), 2, 2) == m


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def qq_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    data = [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix(QQ, data)


@settings(max_examples=60, deadline=None)
@given(qq_matrices())
def test_rank_nullity(m):
    assert m.rank() + left_kernel_matrix(m.transpose()).rows == m.cols


@settings(max_examples=60, deadline=None)
@given(qq_matrices())
def test_rank_of_transpose(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=40, deadline=None)
@given(qq_matrices())
def test_kernel_exactness(m):
    assert (m @ left_kernel_matrix(m.transpose()).transpose()).is_zero()


@settings(max_examples=40, deadline=None)
@given(qq_matrices())
def test_solve_consistency(m):
    # a right-hand side in the column space is always solved exactly
    b = m @ column(QQ, [Fraction(k % 3 - 1) for k in range(m.cols)])
    sol = m.solve([b[i, 0] for i in range(m.rows)])
    assert sol is not None
    assert m @ column(QQ, sol) == b


# --- Q scalars: ints when integral, Fractions only when not ------------------

def canonical_q(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def parse_outcome(parse, s):
    """The parsed value, or the class of the exception that parsing raised."""
    try:
        return parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def assert_parses_like_fraction(s):
    got, want = parse_outcome(QQ.parse, s), parse_outcome(Fraction, s)
    assert got == want, (s, got, want)
    if not isinstance(want, type):
        assert canonical_q(got), (s, got)


# int() accepts "1_000" and "0_0" on Python 3.10 where Fraction() does not
@pytest.mark.parametrize("s", ["1_000", "0_0", " 3 ", "-6/3", "1e3"])
def test_parse_explicit_cases(s):
    assert_parses_like_fraction(s)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789+-/._eE \t\n\u00a0\u2003\u0661", max_size=8))
def test_parse_accepts_exactly_what_fraction_accepts(s):
    assert_parses_like_fraction(s)


q_entries = st.one_of(small_entries, st.fractions(min_value=-9, max_value=9, max_denominator=4))


@st.composite
def q_systems(draw):
    """A small rational matrix and a right-hand side, integral or not."""
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    m = ExactMatrix(QQ, [[draw(q_entries) for _ in range(cols)] for _ in range(rows)])
    return m, [draw(q_entries) for _ in range(rows)]


@settings(max_examples=80, deadline=None)
@given(q_systems())
def test_q_results_hold_no_float_and_no_integral_fraction(system):
    m, b = system
    sol = m.solve(b)
    mats = [m @ column(QQ, b[:1] * m.cols), left_kernel_matrix(m.transpose()),
            m @ m.transpose(), left_kernel_matrix(m)]
    assert sol is None or all(canonical_q(x) for x in sol)
    assert all(canonical_q(x) for mat in mats for row in mat.sparse_rows() for x in row.values())


def test_solve_with_a_non_integral_solution():
    sol = qq([[2, 0], [0, 3]]).solve([1, 6])
    assert sol == [Fraction(1, 2), 2] and [type(x) for x in sol] == [Fraction, int]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hom_space_bases_hold_no_float_and_no_integral_fraction(data):
    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def rep():
        return KroneckerRep(2, DimVector(a, b), tuple(
            ExactMatrix(QQ, [[data.draw(q_entries) for _ in range(a)] for _ in range(b)], b, a)
            for _ in range(2)))

    m, n = rep(), rep()
    for f1, f2 in hom_space(m, n).basis + hom_space(m, m).basis:
        assert all(canonical_q(x) for f in (f1, f2)
                   for row in f.sparse_rows() for x in row.values())


# --- the column-indexed sparse echelon against the full-scan reference -------

def assert_same_echelon(rows, ncols):
    snapshot = copy.deepcopy(rows)
    got = sparse_int_echelon(rows, ncols)
    assert rows == snapshot, "input rows were mutated"
    assert got == reference_sparse_int_echelon(rows, ncols)
    assert [c for c, _ in got] == sorted({c for c, _ in got})


def test_echelon_fill_in_cancels_then_reappears():
    # pivoting column 0 on row 0 cancels column 2 from row 1; pivoting
    # column 1 on row 2 (smaller entry) fills column 2 back into row 1.
    # At column 2, row 1 ties with row 3 and wins by input position.
    rows = [{0: 1, 2: 1}, {0: 1, 1: 2, 2: 1, 3: 1}, {1: 1, 2: 1}, {2: 3, 3: 1}]
    assert_same_echelon(rows, 4)
    assert sparse_int_echelon(rows, 4) == [(0, {0: 1, 2: 1}), (1, {1: 1, 2: 1}),
                                           (2, {2: -2, 3: 1}), (3, {3: -1})]


@st.composite
def int_row_systems(draw):
    """Integer rows with empty rows, duplicates, zero columns and cancelling fill-in."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.integers(min_value=-4, max_value=4).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
                         max_size=8))
    # integer combinations of earlier rows: duplicates, multiples and rows
    # whose elimination cancels fill-in (or the whole row)
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                                           st.integers(-2, 2)), max_size=5)):
        if rows:
            x, y = rows[i % len(rows)], rows[j % len(rows)]
            combo = {c: x.get(c, 0) + k * y.get(c, 0) for c in sorted(set(x) | set(y))}
            rows.append({c: v for c, v in combo.items() if v})
    blank = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    rows = [{c: v for c, v in r.items() if c not in blank} for r in rows]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols + draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(int_row_systems())
def test_indexed_echelon_matches_full_scan(system):
    rows, ncols = system
    assert_same_echelon(rows, ncols)


def test_explicit_zero_entries_are_never_pivots():
    # a zero entry has bit length 0, so a pivot rule that saw it would pick it
    rows = [{0: -1, 1: 0, 3: -1}, {0: 0, 1: -1, 2: -1, 3: 2}, {1: -1, 2: 1}, {0: 2, 2: 1}]
    nonzero = [{c: v for c, v in row.items() if v} for row in rows]
    assert sparse_int_echelon(rows, 4) == sparse_int_echelon(nonzero, 4)
    assert len(sparse_int_echelon(rows, 4)) == 4
    assert sparse_int_echelon([{0: 0}, {1: 0, 2: 0}], 3) == []
    assert ExactMatrix(QQ, [[-1, 0, 0, -1], [0, -1, -1, 2], [0, -1, 1, 0], [2, 0, 1, 0]]).rank() == 4
    assert sparse_int_kernel(rows, 4) == []


@settings(max_examples=200, deadline=None)
@given(int_row_systems(), st.data())
def test_engine_ignores_explicit_zeros(system, data):
    rows, ncols = system
    padded = [dict(row) for row in rows]
    for row in padded:
        for c in data.draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            row.setdefault(c, 0)
    assert sparse_int_echelon(padded, ncols) == sparse_int_echelon(rows, ncols)


@st.composite
def q_row_systems(draw):
    """Rational rows with Fractions and explicit zeros, dependent rows among
    them, and the same rows scaled row by row to integers: zeros dropped,
    times the lcm of the row's denominators and one more positive factor."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(0), st.integers(-4, 4),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
                         max_size=7))
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                                           st.fractions(-2, 2, max_denominator=3)), max_size=3)):
        if rows:
            x, y = rows[i % len(rows)], rows[j % len(rows)]
            rows.append({c: x.get(c, 0) + k * y.get(c, 0) for c in sorted(set(x) | set(y))})
    scaled = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row.values())) * draw(st.integers(1, 6))
        scaled.append({c: int(v * scale) for c, v in row.items() if v})
    return rows, scaled, ncols


@settings(max_examples=300, deadline=None)
@given(q_row_systems())
def test_rational_rows_give_what_their_integer_scalings_give(system):
    # each row enters the engine as its primitive integer row, so scaling
    # rows by positive integers changes no echelon form, rank or kernel
    rows, scaled, ncols = system
    snapshot = copy.deepcopy(rows)
    assert sparse_int_echelon(rows, ncols) == sparse_int_echelon(scaled, ncols)
    assert sparse_int_rank(rows, ncols) == sparse_int_rank(scaled, ncols)
    assert sparse_int_kernel(rows, ncols) == sparse_int_kernel(scaled, ncols)
    assert rows == snapshot, "input rows were mutated"


# --- rank by singleton peeling ------------------------------------------------

@st.composite
def rank_systems(draw):
    """Integer rows with explicit zeros, entries that vanish mod p, empty and
    duplicate rows, and patterns from forest-like to dense."""
    ncols = draw(st.integers(min_value=0, max_value=8))
    cols = st.integers(0, ncols - 1) if ncols else st.nothing()
    entry = st.sampled_from([0, 1, -1, 2, 3, -4, 6, 101, -202, 303, 7])
    rows = draw(st.lists(st.dictionaries(cols, entry, max_size=min(ncols, 3)), max_size=9))
    for i in draw(st.lists(st.integers(0, 15), max_size=3)):
        if rows:
            rows.append(dict(rows[i % len(rows)]))
    rows.append({})
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=400, deadline=None)
@given(rank_systems())
def test_peeled_rank_matches_references(system):
    rows, ncols = system
    snapshot = copy.deepcopy(rows)
    nonzero = [{c: v for c, v in row.items() if v} for row in rows]
    want = len(reference_sparse_int_echelon(nonzero, ncols))
    assert sparse_int_rank(rows, ncols) == len(sparse_int_echelon(rows, ncols)) == want
    for p in (2, 3, 101):
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        assert sparse_int_rank(rows, ncols, p) == len(_dense_rref(dense, ncols, p)[1]), p
    assert rows == snapshot, "input rows were mutated"


@settings(max_examples=200, deadline=None)
@given(rank_systems())
def test_peel_pivots_are_distinct_entries(system):
    rows, ncols = system
    rows = [{c: v for c, v in row.items() if v} for row in rows]
    pivots, core = _peel(rows)
    pivot_rows = [i for i, _ in pivots]
    pivot_cols = [c for _, c in pivots]
    assert len(set(pivot_rows)) == len(pivot_rows)
    assert len(set(pivot_cols)) == len(pivot_cols)
    assert all(c in rows[i] for i, c in pivots)
    # no pivot column is left in the core
    assert not {c for row in core for c in row} & set(pivot_cols)
    assert len(pivots) + len(reference_sparse_int_echelon(core, ncols)) == len(
        reference_sparse_int_echelon(rows, ncols))


def random_forest_rows(rng, nrows, ncols):
    """Rows whose bipartite row-column graph is a forest, with non-zero entries."""
    rows = [{} for _ in range(nrows)]
    seen_rows, seen_cols = [], []
    for v in rng.sample([("r", i) for i in range(nrows)] + [("c", j) for j in range(ncols)],
                        nrows + ncols):
        kind, k = v
        others = seen_cols if kind == "r" else seen_rows
        if others and rng.random() < 0.85:
            u = rng.choice(others)
            i, j = (k, u) if kind == "r" else (u, k)
            rows[i][j] = rng.choice([1, -1, 2, -3, 5])
        (seen_rows if kind == "r" else seen_cols).append(k)
    return rows


def count_calls(monkeypatch, name="sparse_int_echelon"):
    """The argument tuples of every call to ``exactmat.<name>`` from here on."""
    calls = []
    fn = getattr(exactmat, name)
    monkeypatch.setattr(exactmat, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def difference_rank(rows, ncols, p=None):
    """The rank of a difference system read off its forest, or None if it is not one."""
    system = SparseSystem(rows, ncols, p)
    return None if system.forest() is None else system.rank()


def test_forest_pattern_never_reaches_the_engine(monkeypatch):
    rng = random.Random(5)
    cases = [(random_forest_rows(rng, n, k), k) for n, k in
             [(1, 1), (3, 7), (8, 5), (20, 20), (40, 90), (90, 40)] for _ in range(5)]
    want = [len(reference_sparse_int_echelon(rows, ncols)) for rows, ncols in cases]
    calls = count_calls(monkeypatch)
    for (rows, ncols), rank in zip(cases, want):
        assert sparse_int_rank(rows, ncols) == rank
        assert sparse_int_rank(rows, ncols, 3) == len(
            _dense_rref([[row.get(j, 0) for j in range(ncols)] for row in rows], ncols, 3)[1])
    assert calls == []


@pytest.mark.parametrize("r, c, d", [(3, 3, 2), (3, 17, 13), (4, 13, 5), (3, 8, 5), (2, 1, 3)])
def test_tree_end_systems_peel_to_nothing(monkeypatch, r, c, d):
    # cover, shift and preprojective trees: their End systems have forest patterns
    tree = realize(r, c, d).tree
    calls = count_calls(monkeypatch)
    assert verify.is_brick(tree)
    assert calls == []


# --- difference systems by union-find -----------------------------------------

@st.composite
def difference_systems(draw):
    """Rows x*(u - v) and x*u on a random graph with cycles, with grounded and
    ungrounded components, explicit zeros, entries that vanish mod p and
    duplicate rows."""
    ncols = draw(st.integers(min_value=1, max_value=10))
    col = st.integers(0, ncols - 1)
    scale = st.sampled_from([1, -1, 2, -3, 6, 7, 101, -202, 303])
    rows = [{u: x, v: -x} for u, v, x in draw(st.lists(st.tuples(col, col, scale), max_size=14))
            if u != v]
    rows += [{u: x} for u, x in draw(st.lists(st.tuples(col, scale), max_size=3))]
    # a zero partner grounds the other column; a zero third entry changes nothing
    rows += [{u: x, v: 0} for u, v, x in draw(st.lists(st.tuples(col, col, scale), max_size=2))
             if u != v]
    for i, w in draw(st.lists(st.tuples(st.integers(0, 30), col), max_size=3)):
        if rows and w not in rows[i % len(rows)]:
            rows.append({**rows[i % len(rows)], w: 0})
    for i in draw(st.lists(st.integers(0, 30), max_size=3)):
        if rows:
            rows.append(dict(rows[i % len(rows)]))
    rows += [{draw(col): 0}, {}]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=300, deadline=None)
@given(difference_systems())
def test_difference_rank_matches_references(system):
    rows, ncols = system
    snapshot = copy.deepcopy(rows)
    nonzero = [{c: v for c, v in row.items() if v} for row in rows]
    want = len(reference_sparse_int_echelon(nonzero, ncols))
    assert difference_rank(rows, ncols) == sparse_int_rank(rows, ncols) == want
    for p in (2, 3, 101):
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        want = len(_dense_rref(dense, ncols, p)[1])
        assert difference_rank(rows, ncols, p) == sparse_int_rank(rows, ncols, p) == want, p
    assert rows == snapshot, "input rows were mutated"


def test_triangle_of_sums(monkeypatch):
    # u + v is a difference row only in characteristic 2
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    assert difference_rank(rows, 3) is None and difference_rank(rows, 3, 3) is None
    assert difference_rank(rows, 3, 2) == 2
    calls = count_calls(monkeypatch)
    assert sparse_int_rank(rows, 3) == 3
    assert len(calls) == 1
    assert sparse_int_rank(rows, 3, 2) == 2
    assert len(calls) == 1


def test_row_of_three_entries_falls_back(monkeypatch):
    rows = [{0: 1, 1: -1}, {1: 2, 2: -2}, {0: 1, 1: 1, 2: 1}]
    snapshot = copy.deepcopy(rows)
    assert difference_rank(rows, 3) is None and difference_rank(rows, 3, 3) is None
    calls = count_calls(monkeypatch)
    assert sparse_int_rank(rows, 3) == 3 == len(reference_sparse_int_echelon(rows, 3))
    # the determinant is 6
    assert sparse_int_rank(rows, 3, 3) == 2 == len(
        _dense_rref([[row.get(j, 0) for j in range(3)] for row in rows], 3, 3)[1])
    assert len(calls) == 2
    assert rows == snapshot, "input rows were mutated"
    # entries that vanish leave two, and the row is a difference again
    rows = [{0: 1, 1: -1, 2: 0}, {0: 4, 1: 7, 2: -4}]
    assert difference_rank(rows, 3, 7) == 2
    assert difference_rank(rows, 3) is None


@pytest.mark.parametrize("r, a, b, field", [(3, 20, 40, QQ), (4, 14, 42, QQ), (3, 6, 10, GF(101))])
def test_echelon_end_systems_skip_the_peel_and_the_engine(monkeypatch, r, a, b, field):
    # the two echelon bricks of the benchmark's brick-mid deck, and one over GF(101)
    m = build_echelon_rep(select_phi(r, a, b), field)
    peels, engine = count_calls(monkeypatch, "_peel"), count_calls(monkeypatch)
    assert verify.is_brick(m)
    # a brick: Ext^1(m, m) is 1 - q(a, b) by the Euler identity
    assert ext_dim(m, m) == 1 - tits_form(m.r, m.dim)
    assert peels == [] and engine == []


# --- GF(p): the modular sparse engine against the dense reference ------------

def dense_kernel(data, ncols, p):
    """Kernel basis read off the dense RREF: 1 at its free column, 0 at the others."""
    red, pivots = _dense_rref(data, ncols, p)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [0] * ncols
            vec[f] = 1
            for r, c in enumerate(pivots):
                vec[c] = -red[r][f] % p
            basis.append(vec)
    return basis


def dense_solve(data, rhs, ncols, p):
    red, pivots = _dense_rref([row + [x] for row, x in zip(data, rhs)], ncols + 1, p)
    if ncols in pivots:
        return None
    sol = [0] * ncols
    for r, c in enumerate(pivots):
        sol[c] = red[r][ncols]
    return sol


@st.composite
def gf_systems(draw):
    """A prime, an integer matrix with negative and out-of-range entries, zero
    rows and possibly no rows or columns, and a right-hand side."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=0, max_value=6))
    entry = st.integers(min_value=-2 * p, max_value=2 * p)
    data = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, 5), max_size=2)):
        if i < nrows:
            data[i] = [p * draw(st.integers(-1, 1)) for _ in range(ncols)]
    if nrows > 1 and draw(st.booleans()):
        # a combination of the first two rows, so rank deficiency is common
        k = draw(st.integers(1, p - 1)) if p > 2 else 1
        data.append([x + k * y for x, y in zip(data[0], data[1])])
    rhs = [draw(entry) for _ in data]
    return p, data, ncols, rhs


@settings(max_examples=300, deadline=None)
@given(gf_systems())
def test_modular_engine_matches_dense_reference(system):
    p, data, ncols, rhs = system
    rows = [{j: x for j, x in enumerate(row) if x} for row in data]
    _, pivots = _dense_rref(data, ncols, p)
    echelon = sparse_int_echelon(rows, ncols, p)
    assert [c for c, _ in echelon] == pivots
    assert all(0 < v < p for _, row in echelon for v in row.values())
    m = ExactMatrix(GF(p), data, len(data), ncols)
    assert m.rank() == len(pivots)
    # a basis reduced at its free columns is unique: equal vector for vector
    basis = dense_kernel(data, ncols, p)
    assert left_kernel_matrix(m.transpose()) == ExactMatrix(GF(p), basis, len(basis), ncols)
    assert m.solve(rhs) == dense_solve(data, rhs, ncols, p)


# the six representations of the modp-verify benchmark deck:
# (kind, r, a, b, p, verify M + M instead of M)
MODP_SHAPES = [
    ("echelon", 3, 6, 10, 101, False),
    ("echelon", 4, 5, 11, 103, False),
    ("cover", 3, 5, 12, 107, False),
    ("cover", 4, 4, 13, 109, False),
    ("echelon", 3, 3, 6, 113, True),
    ("cover", 3, 3, 7, 101, True),
]


def modp_rep(kind, r, a, b, p, double):
    if kind == "echelon":
        rep = build_echelon_rep(select_phi(r, a, b), GF(p))
    else:
        quiver = build_source_regular(r, a)
        tree = build_indecomposable_tree_rep(quiver, build_root_vector(quiver, a, b), field=GF(p))
        rep = push_down(tree)
    return direct_sum(rep, rep) if double else rep


@pytest.mark.parametrize("shape", MODP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_prime_field_certificates_match_dense_reference(shape):
    m = modp_rep(*shape)
    p = shape[4]
    rows, nvars = _intertwining_rows(m, m)
    dense = [[row.get(j, 0) for j in range(nvars)] for row in rows]
    _, pivots = _dense_rref(dense, nvars, p)
    endos = hom_space(m, m)
    assert [[f[i, j] for f in (f1, f2) for i in range(f.rows) for j in range(f.cols)]
            for f1, f2 in endos.basis] == dense_kernel(dense, nvars, p)
    assert ext_dim(m, m) == m.r * m.dim.a * m.dim.b - len(pivots)
    pencils = [pencil(m, alpha) for alpha in probe_alphas(m.field, m.r, 30, 7)]
    want = [len(_dense_rref([[row.get(j, 0) for j in range(m.dim.a)] for row in pc.sparse_rows()],
                            m.dim.a, p)[1]) for pc in pencils]
    assert list(kronecker._sampled_ranks(m, 30, 7)) == want


# --- kernels: union-find and one back-substitution pass against the reference --

@st.composite
def kernel_systems(draw):
    """A modulus (None over Q, else 2, 3 or 5), sparse rows, their column count
    and a right-hand side.  Half the systems are difference systems: rows
    x*(u - v) with grounds, untouched columns, explicit zeros, entries that
    vanish mod p, partners that cancel only mod p (u + v at p = 2) and
    Fraction scales over Q.  The rest are arbitrary rows; there may be no
    rows or no columns."""
    p = draw(st.sampled_from([None, 2, 3, 5]))
    ncols = draw(st.integers(min_value=0, max_value=9))
    col = st.integers(0, ncols - 1) if ncols else st.nothing()
    cap = 1 if ncols else 0   # no column: no entry to draw
    if p is None:
        scale = st.one_of(st.sampled_from([1, -1, 2, -3, 6]),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    else:
        scale = st.integers(-2 * p, 2 * p)
    rows = []
    if draw(st.booleans()):
        for u, v, x in draw(st.lists(st.tuples(col, col, scale), max_size=10 * cap)):
            if u != v:
                # mod p the partner may be -x shifted by a multiple of p
                y = -x + (p * draw(st.integers(-1, 1)) if p else 0)
                rows.append({u: x, v: y})
        rows += [{u: x} for u, x in draw(st.lists(st.tuples(col, scale), max_size=3 * cap))]
        rows += [{u: x, v: 0} for u, v, x in draw(st.lists(st.tuples(col, col, scale),
                                                            max_size=2 * cap)) if u != v]
        if p:
            # a third entry that vanishes mod p
            for i, w in draw(st.lists(st.tuples(st.integers(0, 30), col), max_size=2 * cap)):
                if rows and w not in rows[i % len(rows)]:
                    rows.append({**rows[i % len(rows)], w: p})
    else:
        rows = draw(st.lists(st.dictionaries(col, scale, max_size=min(ncols, 4)), max_size=8))
    rows.append({})
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    return p, rows, ncols, [draw(scale) for _ in rows]


def keyed(vectors):
    """Each vector as its (key, value, type) triples, in key order."""
    return [[(j, x, type(x)) for j, x in v.items()] for v in vectors]


@settings(max_examples=400, deadline=None)
@given(kernel_systems())
def test_kernel_and_solve_match_the_per_column_reference(system):
    p, rows, ncols, rhs = system
    snapshot = copy.deepcopy(rows)
    got = sparse_int_kernel(rows, ncols, p)
    assert keyed(got) == keyed(reference_sparse_int_kernel(rows, ncols, p))
    assert rows == snapshot, "input rows were mutated"
    m = ExactMatrix.from_rows(QQ if p is None else GF(p), rows, ncols)
    sol = m.solve(rhs)
    want = reference_solve(m, rhs)
    assert sol == want
    assert sol is None or [type(x) for x in sol] == [type(x) for x in want]


def test_difference_kernels_are_read_off_the_forest(monkeypatch):
    # components {0, 2, 5} and {3, 4}, grounded {1, 6}, column 7 untouched
    rows = [{5: 7, 0: -7}, {2: 1, 0: -1}, {4: 1, 3: -1}, {1: 5, 6: -5}, {6: 5}, {7: 0}]
    calls = count_calls(monkeypatch)
    want = [[(4, 1), (3, 1)], [(5, 1), (2, 1), (0, 1)], [(7, 1)]]
    for p in (None, 2, 3, 101):
        assert [list(v.items()) for v in sparse_int_kernel(rows, 8, p)] == want
    assert calls == []
    # u + v joins only at p = 2; elsewhere the triangle has full rank
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {3: 1, 4: 1}]
    assert [list(v.items()) for v in sparse_int_kernel(rows, 5, 2)] == [[(2, 1), (1, 1), (0, 1)],
                                                                        [(4, 1), (3, 1)]]
    assert calls == []
    assert [list(v.items()) for v in sparse_int_kernel(rows, 5, 3)] == [[(4, 1), (3, 2)]]
    assert len(calls) == 1


def reference_hom_basis(m):
    """The Hom(m, m) basis that hom_space builds, from the per-column reference kernel."""
    (a, b), fld = m.dim, m.field
    rows, nvars = _intertwining_rows(m, m)
    basis = []
    for vec in reference_sparse_int_kernel(rows, nvars, fld.modulus):
        f1, f2 = [{} for _ in range(a)], [{} for _ in range(b)]
        for k, x in vec.items():
            if k < a * a:
                f1[k // a][k % a] = x
            else:
                f2[(k - a * a) // b][(k - a * a) % b] = x
        basis.append((ExactMatrix.from_rows(fld, f1, a), ExactMatrix.from_rows(fld, f2, b)))
    return basis


@pytest.mark.parametrize("shape", MODP_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_hom_space_matches_the_reference_on_the_prime_field_shapes(monkeypatch, shape):
    m = modp_rep(*shape)
    rows, ncols = _intertwining_rows(m, m)
    difference = difference_rank(rows, ncols, shape[4]) is not None
    want = reference_hom_basis(m)
    calls = count_calls(monkeypatch)
    assert list(hom_space(m, m).basis) == want
    # every shape but the r=3 cover (5, 12) has a difference End system
    assert difference == (shape[1:4] != (3, 5, 12))
    assert len(calls) == (0 if difference else 1)
    # the brick test and Ext rank the same kept system: a difference system
    # from the forest Hom read, the other by one peel of its own, which
    # leaves no core; Hom's echelon of the whole system is never reused
    system = m._end_memo["system"]
    nvars = system.ncols
    rank = len(_dense_rref([[row.get(j, 0) for j in range(nvars)] for row in rows],
                           nvars, shape[4])[1])
    peels = count_calls(monkeypatch, "_peel")
    assert verify.is_brick(m) == (len(want) == 1) == (nvars - rank == 1)
    assert verify.ext_dim(m, m) == m.r * m.dim.a * m.dim.b - rank
    assert len(peels) == len(calls) == (0 if difference else 1)
    assert difference or calls[0][0] is system.rows


@pytest.mark.parametrize("c, d", [(17, 13), (46, 34)])
def test_hom_space_matches_the_reference_on_cover_witnesses(c, d):
    assert classify(3, c, d).route == "cover"
    m = realize(3, c, d).rep
    assert m.dim == DimVector(d, c + d)
    assert list(hom_space(m, m).basis) == reference_hom_basis(m)
    assert verify.end_is_local(m)
