"""Invariants of the sparse-row ExactMatrix, over Q, GF(2) and GF(101).

Every matrix holds its rows as dicts of non-zero, reduced entries, so
the dense constructor, ``from_rows`` and ``from_str_lists`` must build
the same rows from the same values, and indexing and the JSON strings
must give back the reduced input entry by entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronjord.exactmat import GF, QQ, ExactMatrix

FIELDS = [QQ, GF(2), GF(101)]


def entries(field):
    """Scalars a caller may pass: Fractions and zeros over Q; over GF(p),
    negative ints, ints of p and above, and multiples of p."""
    if field.modulus is None:
        return st.one_of(st.just(0), st.integers(-9, 9),
                         st.fractions(min_value=-9, max_value=9, max_denominator=6))
    p = field.modulus
    return st.one_of(st.integers(-3 * p, 3 * p), st.integers(-3, 3).map(lambda k: k * p))


@st.composite
def dense_inputs(draw):
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    data = [[draw(entries(field)) for _ in range(cols)] for _ in range(rows)]
    return field, data, rows, cols


@settings(max_examples=200, deadline=None)
@given(dense_inputs())
def test_dense_constructor_and_from_rows_agree(case):
    field, data, rows, cols = case
    dense = ExactMatrix(field, data, rows, cols)
    sparse = ExactMatrix.from_rows(field, [dict(enumerate(r)) for r in data], cols)
    assert dense == sparse and hash(dense) == hash(sparse)
    assert (dense.rows, dense.cols) == (sparse.rows, sparse.cols) == (rows, cols)
    for m in (dense, sparse):
        assert len(m.sparse_rows()) == rows
        assert all(x != 0 for row in m.sparse_rows() for x in row.values())
        if field.modulus is not None:
            assert all(0 < x < field.modulus for row in m.sparse_rows() for x in row.values())


@settings(max_examples=200, deadline=None)
@given(dense_inputs())
def test_dense_views_give_back_the_reduced_input(case):
    field, data, rows, cols = case
    m = ExactMatrix(field, data, rows, cols)
    want = [[field.element(x) for x in r] for r in data]
    got = [[m[i, j] for j in range(cols)] for i in range(rows)]
    assert got == want
    assert [[type(x) for x in r] for r in got] == [[type(x) for x in r] for r in want]
    assert m.to_str_lists() == [[field.to_str(x) for x in r] for r in want]
    assert ExactMatrix.from_str_lists(field, m.to_str_lists(), rows, cols) == m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_order_changes_neither_equality_nor_hash(data):
    field, dense, rows, cols = data.draw(dense_inputs())
    orders = [data.draw(st.permutations(range(cols))) for _ in range(rows)]
    forward = ExactMatrix.from_rows(field, [dict(enumerate(r)) for r in dense], cols)
    shuffled = ExactMatrix.from_rows(field, [{j: r[j] for j in order}
                                             for r, order in zip(dense, orders)], cols)
    backward = ExactMatrix.from_rows(field, [{j: r[j] for j in reversed(range(cols))}
                                             for r in dense], cols)
    assert forward == shuffled == backward
    assert hash(forward) == hash(shuffled) == hash(backward)


@pytest.mark.parametrize("field, zero", [(QQ, "0"), (QQ, "-0"), (QQ, "00"), (QQ, "0/7"),
                                         (GF(101), "101"), (GF(101), "-202"), (GF(2), "4")])
def test_zero_strings_are_read_as_zero(field, zero):
    m = ExactMatrix.from_str_lists(field, [[zero, "1"], ["1", zero]], 2, 2)
    assert m.sparse_rows() == [{1: 1}, {0: 1}]
    assert m == ExactMatrix(field, [[0, 1], [1, 0]])
    assert m.to_str_lists() == [["0", "1"], ["1", "0"]]


@settings(max_examples=100, deadline=None)
@given(dense_inputs())
def test_indexing_out_of_range_raises(case):
    field, data, rows, cols = case
    m = ExactMatrix(field, data, rows, cols)
    for i in range(rows):
        with pytest.raises(IndexError):
            m[i, cols]
        with pytest.raises(IndexError):
            m[i, -cols - 1]
        assert [m[i, j - cols] for j in range(cols)] == [m[i, j] for j in range(cols)]
    with pytest.raises(IndexError):
        m[rows, 0]


def test_from_rows_rejects_a_column_outside_the_shape():
    with pytest.raises(ValueError, match="column index outside 0..1"):
        ExactMatrix.from_rows(QQ, [{0: 1}, {2: 1}], 2)
    with pytest.raises(ValueError, match="column index outside"):
        ExactMatrix.from_rows(GF(5), [{-1: 1}], 2)


def test_from_rows_copies_its_input():
    rows = [{0: Fraction(2, 1), 1: 0}]
    m = ExactMatrix.from_rows(QQ, rows, 2)
    rows[0][1] = 5
    assert m.sparse_rows() == [{0: 2}] and type(m[0, 0]) is int
