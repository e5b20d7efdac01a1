"""Forms, roots, pencils, Jordan types, duality, and the operator translation."""

import json
import sys
import threading
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import (
    explicit_p2,
    preinjective_dim_vectors,
    preprojective_dim_vectors,
    reference_pencil_rank,
    reference_probe_points,
)

from kronjord import kronecker
from kronjord.echelon import build_echelon_rep, select_phi
from kronjord.exactmat import GF, QQ, ExactMatrix, _dense_rref, _peel
from kronjord.kronecker import (
    DimVector,
    JordanType,
    KroneckerRep,
    classify_root,
    coxeter_apply,
    direct_sum,
    dual,
    euler_form,
    generic_rank,
    is_constant_jordan_type,
    is_in_ijt,
    jordan_type_at,
    pencil,
    probe_alphas,
    simple_rep,
    tits_form,
    to_module_operators,
    xi,
    xi_inverse,
)
from kronjord.pipeline import classify, realize

RS = [2, 3, 4, 5, 6]


class TestForms:
    @pytest.mark.parametrize("r", RS)
    def test_tits_at_p2(self, r):
        assert tits_form(r, (1, r)) == 1

    @pytest.mark.parametrize("r", RS)
    def test_tits_doubled_p2(self, r):
        assert tits_form(r, (2, 2 * r)) == 4

    def test_tits_isotropic_r2(self):
        for a in range(1, 10):
            assert tits_form(2, (a, a)) == 0

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_euler_cross_pair(self, r):
        assert euler_form(r, (1, r - 1), (r - 1, 1)) == r - 2

    def test_euler_simples(self):
        assert euler_form(3, (1, 0), (1, 0)) == 1
        for r in RS:
            assert euler_form(r, (1, 0), (0, 1)) == -r

    def test_euler_diagonal_is_tits(self):
        for r in RS:
            for a in range(0, 6):
                for b in range(0, 6):
                    assert euler_form(r, (a, b), (a, b)) == tits_form(r, (a, b))


class TestCoxeter:
    def test_worked_example(self):
        assert coxeter_apply(3, (2, 5), 1) == (1, 1)

    def test_power_zero(self):
        assert coxeter_apply(4, (7, 9), 0) == (7, 9)

    def test_inverse_direction(self):
        # multiply by [[-1,3],[-3,8]]
        assert coxeter_apply(3, (1, 2), -1) == (5, 13)

    def test_round_trip_identity(self):
        for r in RS:
            for a in range(-4, 5):
                for b in range(-4, 5):
                    v = coxeter_apply(r, coxeter_apply(r, (a, b), 1), -1)
                    assert v == (a, b)

    def test_form_invariance(self):
        for r in RS:
            for a in range(0, 7):
                for b in range(0, 7):
                    w = coxeter_apply(r, (a, b), 1)
                    assert tits_form(r, w) == tits_form(r, (a, b))

    @pytest.mark.parametrize("r", [1, 0, -3])
    def test_rejects_r_below_two(self, r):
        with pytest.raises(ValueError, match="r must be at least 2"):
            coxeter_apply(r, (2, 5), 1)


class TestRootClass:
    @pytest.mark.parametrize("r", RS)
    def test_p2_is_preprojective(self, r):
        rc = classify_root(r, (1, r))
        assert (rc.kind, rc.position) == ("real", "preprojective")

    def test_imaginary_regular(self):
        rc = classify_root(3, (2, 5))
        assert (rc.kind, rc.position) == ("imaginary", "regular")
        assert tits_form(3, (2, 5)) == -1

    def test_not_a_root(self):
        assert classify_root(3, (1, 5)).kind == "not-a-root"
        assert tits_form(3, (1, 5)) == 11

    def test_simples(self):
        assert classify_root(3, (1, 0)).position == "simple"
        assert classify_root(3, (0, 1)).position == "simple"

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            classify_root(3, (0, 0))


class TestPencil:
    def test_basis_vector_recovers_matrix(self):
        m = explicit_p2(3)
        assert pencil(m, [1, 0, 0]) == m.mats[0]

    def test_p2_pencil_is_alpha_column(self):
        m = explicit_p2(4)
        p = pencil(m, [2, -1, 5, 3])
        assert p == ExactMatrix(QQ, [[2], [-1], [5], [3]])

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            pencil(explicit_p2(3), [0, 0, 0])

    def test_jordan_type_p2(self):
        for r in (2, 3, 5):
            m = explicit_p2(r)
            for alpha in probe_alphas(QQ, r, 10, 3):
                assert jordan_type_at(m, alpha) == JordanType(r - 1, 1)

    def test_jordan_type_simple(self):
        assert jordan_type_at(simple_rep(3, (1, 0)), [1, 1, 1]) == JordanType(1, 0)

    def test_jordan_type_doubles_under_direct_sum(self):
        m = explicit_p2(3)
        mm = direct_sum(m, m)
        for alpha in probe_alphas(QQ, 3, 8, 11):
            c, d = jordan_type_at(m, alpha)
            assert jordan_type_at(mm, alpha) == JordanType(2 * c, 2 * d)

    def test_type_sums_to_total_dimension(self):
        m = explicit_p2(4)
        for alpha in probe_alphas(QQ, 4, 8, 5):
            c, d = jordan_type_at(m, alpha)
            assert c + 2 * d == m.total_dim()


class TestGenericRank:
    def test_p2(self):
        for r in (2, 3, 4):
            d, c, record = generic_rank(explicit_p2(r), 30, 0)
            assert (d, c) == (1, r - 1)
            assert record["ranks_seen"] == [1]

    def test_semisimple_rank_zero(self):
        d, c, _ = generic_rank(simple_rep(3, (1, 0)), 10, 0)
        assert (d, c) == (0, 1)

    def test_split_additivity(self):
        m = explicit_p2(3)
        d_m, _, _ = generic_rank(m, 20, 2)
        d_mm, _, _ = generic_rank(direct_sum(m, m), 20, 2)
        assert d_mm == 2 * d_m


# rational entries, zero in half of the draws
entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))


def rational_matrix(draw, rows, cols):
    return ExactMatrix(QQ, [[draw(entries) for _ in range(cols)] for _ in range(rows)], rows, cols)


@st.composite
def qq_reps(draw):
    """Small rational representations: some with a zero dimension or zero
    arrows, some whose arrows all factor through one b x k matrix, so that
    every pencil has rank at most k."""
    r = draw(st.integers(min_value=2, max_value=4))
    a = draw(st.integers(min_value=0, max_value=4))
    b = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=2))
        x = rational_matrix(draw, b, k)
        mats = [x @ rational_matrix(draw, k, a) for _ in range(r)]
    else:
        mats = [ExactMatrix.zeros(QQ, b, a) if draw(st.booleans()) else rational_matrix(draw, b, a)
                for _ in range(r)]
    m = KroneckerRep(r, DimVector(a, b), tuple(mats))
    return direct_sum(m, m) if draw(st.booleans()) else m


def integer_rank(m, alpha):
    """The rank the sampled checks give ``m`` at ``alpha``, as the one point of a probe plan."""
    probes = kronecker._probe_plan([alpha], m.r, m.field.modulus)
    return next(kronecker._ranks_at(m, probes, {}))


def over_gf(m, p):
    """The representation over GF(p) whose arrows hold the integer arrows of ``m`` mod p."""
    return KroneckerRep(m.r, m.dim, tuple(ExactMatrix.from_rows(GF(p), mat.sparse_rows(), m.dim.a)
                                          for mat in m.mats), GF(p))


def cleared(m):
    """m over Q with every arrow times the common denominator of all their entries."""
    den = lcm(*(Fraction(v).denominator for mat in m.mats for row in mat.sparse_rows()
                for v in row.values()))
    return KroneckerRep(m.r, m.dim, tuple(mat.scale(den) for mat in m.mats))


class TestIntegerPencilRank:
    """The pencil-plan ranks of the sampled checks equal the whole-pencil ranks."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """The arguments of every call to ``_peel`` and ``pencil`` from the pencil plan and rank."""
        calls = {"peel": [], "pencil": []}
        peel, whole = kronecker._peel, kronecker.pencil
        monkeypatch.setattr(kronecker, "_peel",
                            lambda rows: calls["peel"].append(rows) or peel(rows))
        monkeypatch.setattr(kronecker, "pencil",
                            lambda m, alpha: calls["pencil"].append(alpha) or whole(m, alpha))
        return calls

    @settings(max_examples=80, deadline=None)
    @given(qq_reps(), st.data())
    def test_rank_at_any_integer_point(self, m, data):
        # small coordinates, zeros among them, so pivots vanish and terms cancel
        alpha = data.draw(st.lists(st.integers(min_value=-5, max_value=5),
                                   min_size=m.r, max_size=m.r).filter(any))
        assert integer_rank(m, alpha) == pencil(m, alpha).rank()

    @settings(max_examples=80, deadline=None)
    @given(qq_reps(), st.data())
    def test_rank_mod_p_at_any_integer_point(self, m, data):
        # the denominator-cleared arrows hold entries that vanish mod 2 or 3,
        # so a pivot of the union can vanish mod p at a point with no zero
        # coordinate; the point is non-zero in every field, as probe points are
        m = cleared(m)
        a, b = m.dim
        assert all(type(v) is int for mat in m.mats for row in mat.sparse_rows()
                   for v in row.values())
        alpha = data.draw(st.lists(st.integers(min_value=-6, max_value=6),
                                   min_size=m.r, max_size=m.r)
                          .filter(lambda al: all(any(x % p for x in al) for p in (2, 3, 101))))
        for p in (2, 3, 101):
            dense = [[0] * a for _ in range(b)]
            for c, mat in zip(alpha, m.mats):
                for i, row in enumerate(mat.sparse_rows()):
                    for j, v in row.items():
                        dense[i][j] += c * v
            assert integer_rank(over_gf(m, p), alpha) == len(_dense_rref(dense, a, p)[1]), p

    def test_cancelling_pivot_terms(self, spied):
        # two arrows share the one position, so the pivot is a sum whose terms
        # may cancel: there is no plan, and every point off the basis is a pencil
        one = ExactMatrix(QQ, [[1]])
        m = KroneckerRep(2, DimVector(1, 1), (one, one))
        assert kronecker._pencil_plan(m) is None
        assert integer_rank(m, [1, 1]) == 1
        assert spied["pencil"] == [[1, 1]]
        assert integer_rank(m, [1, -1]) == 0
        assert spied["pencil"] == [[1, 1], [1, -1]]
        one = ExactMatrix(GF(2), [[1]])
        m2 = KroneckerRep(2, DimVector(1, 1), (one, one), GF(2))
        assert kronecker._pencil_plan(m2) is None
        assert integer_rank(m2, [1, 1]) == 0
        assert spied["pencil"] == [[1, 1], [1, -1], [1, 1]]
        assert list(kronecker._sampled_ranks(m2, 3, 0)) == [1, 1, 0]

    def test_union_with_a_core(self, spied):
        # the swap on the first two coordinates closes a 4-cycle with the
        # identity, which no singleton peels; the third coordinate peels
        swap = ExactMatrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        m = KroneckerRep(2, DimVector(3, 3), (ExactMatrix.identity(QQ, 3), swap))
        assert kronecker._pencil_plan(m) is None
        (rows,) = spied["peel"]
        pivots, core = _peel(rows)
        assert len(pivots) == 1 and len(core) == 2
        points = (([1, 1], 2), ([1, -1], 2), ([1, 2], 3), ([0, 1], 2), ([1, 0], 3))
        for alpha, rank in points:
            assert integer_rank(m, alpha) == rank, alpha
        # none is ranked from the pivot count: a point with one non-zero
        # coordinate has its arrow's rank, and every other point goes to pencil
        assert spied["pencil"] == [alpha for alpha, _ in points[:3]]
        assert [pencil(m, alpha).rank() for alpha, _ in points] == [rank for _, rank in points]

    def test_point_with_a_zero_coordinate(self):
        m = realize(3, 4, 3).rep
        alpha = probe_alphas(QQ, 3, 10, 4)[7]
        alpha[1] = 0
        assert all(alpha[t] for t in (0, 2))
        for rep in (m, dual(m), direct_sum(m, m)):
            assert integer_rank(rep, alpha) == pencil(rep, alpha).rank()

    @settings(max_examples=40, deadline=None)
    @given(qq_reps(), st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=9))
    def test_sampled_ranks_follow_the_plan(self, m, samples, seed):
        want = [pencil(m, alpha).rank() for alpha in probe_alphas(QQ, m.r, samples, seed)]
        assert list(kronecker._sampled_ranks(m, samples, seed)) == want

    def test_rank_one_with_mixed_denominators(self):
        half = ExactMatrix(QQ, [[Fraction(1, 2), 1], [1, 2]])
        m = KroneckerRep(2, DimVector(2, 2), (half, ExactMatrix.zeros(QQ, 2, 2)))
        assert integer_rank(m, [1, 0]) == pencil(m, [1, 0]).rank() == 1

    def test_rank_deficient_direct_sums(self):
        m = explicit_p2(3)
        for rep in (direct_sum(m, m), direct_sum(m, simple_rep(3, (1, 0))),
                    direct_sum(dual(m), simple_rep(3, (0, 1)))):
            for alpha in probe_alphas(QQ, 3, 10, 2):
                assert integer_rank(rep, [int(x) for x in alpha]) == pencil(rep, alpha).rank()

    def test_pencils_ranked_along_the_shorter_side(self, spied):
        # both orientations give correct ranks; the shorter one is the
        # faster to peel, so it is pinned here
        m = explicit_p2(3)
        for rep in (m, dual(m)):
            a, b = rep.dim
            spied["peel"].clear()
            kronecker._pencil_plan(rep)
            (rows,) = spied["peel"]
            assert a != b and len(rows) == min(a, b)
            assert all(0 <= j < max(a, b) for row in rows for j in row)
            # position (i, j) of the union is entry (j, i) of each arrow when a < b,
            # and lists exactly the arrows non-zero there
            for i, row in enumerate(rows):
                for j, ts in row.items():
                    ij = (j, i) if a < b else (i, j)
                    assert ts == [t for t, mat in enumerate(rep.mats) if mat[ij]], (i, j)
            terms = sum(len(ts) for row in rows for ts in row.values())
            assert terms == sum(len(row) for mat in rep.mats for row in mat.sparse_rows())

    def test_empty_sides(self):
        for dim in ((0, 3), (3, 0), (0, 0)):
            m = KroneckerRep(2, DimVector(*dim), tuple(ExactMatrix.zeros(QQ, dim[1], dim[0])
                                                       for _ in range(2)))
            assert list(kronecker._sampled_ranks(m, 5, 0)) == [0] * 5

    def test_ranks_stay_out_of_equality_hash_and_json(self):
        m, fresh = explicit_p2(3), explicit_p2(3)
        text = m.to_json_str()
        generic_rank(m, 20, 0)
        assert m._probe_ranks and not fresh._probe_ranks
        assert m == fresh and hash(m) == hash(fresh)
        assert m.to_json_str() == text
        assert "_probe_ranks" not in repr(m)

    def test_one_rep_shared_by_threads(self):
        # ranks 2, 0, 1 at the basis points, then mostly 2: a rank stored
        # under the wrong point would shift the sequence
        mats = (ExactMatrix.identity(QQ, 2), ExactMatrix.zeros(QQ, 2, 2),
                ExactMatrix(QQ, [[1, 0], [0, 0]]))
        fresh = KroneckerRep(3, DimVector(2, 2), mats)
        want = [pencil(fresh, alpha).rank() for alpha in probe_alphas(QQ, 3, 120, 6)]
        shared = KroneckerRep(3, DimVector(2, 2), mats)
        got = {}
        start = threading.Barrier(8, timeout=60)

        def work(k):
            n = 40 + 10 * k
            start.wait()
            got[k] = list(kronecker._sampled_ranks(shared, n, 6)) == want[:n]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == {k: True for k in range(8)}
        assert len(shared._probe_ranks[6]) == 110
        assert [shared._probe_ranks[6][k] for k in range(110)] == want[:110]


@st.composite
def bulk_reps(draw):
    """Small representations over Q, GF(2), GF(3) or GF(101) whose arrows share
    positions: random arrows with entries in {0, 1, -1, 2}, zero arrows, and
    multiples c * arrow s with c in {1, -1, 2} (multi-term pivots whose terms
    cancel, and unions that leave a core); a or b may be 0."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(101)]))
    r = draw(st.integers(min_value=2, max_value=4))
    a = draw(st.integers(min_value=0, max_value=4))
    b = draw(st.integers(min_value=0, max_value=4))
    entries = st.sampled_from([0, 0, 1, -1, 2])
    grids = []
    for t in range(r):
        kind = draw(st.sampled_from(["random", "zero", "multiple"] if t else ["random", "zero"]))
        if kind == "random":
            grids.append([[draw(entries) for _ in range(a)] for _ in range(b)])
        elif kind == "zero":
            grids.append([[0] * a for _ in range(b)])
        else:
            c, s = draw(st.sampled_from([1, -1, 2])), draw(st.integers(min_value=0, max_value=t - 1))
            grids.append([[c * x for x in row] for row in grids[s]])
    mats = tuple(ExactMatrix.from_rows(field, [dict(enumerate(row)) for row in grid], a)
                 for grid in grids)
    return KroneckerRep(r, DimVector(a, b), mats, field)


class TestBulkRanks:
    """The ranks decided for a whole probe plan at once equal the whole-pencil ranks."""

    @settings(max_examples=200, deadline=None)
    @given(bulk_reps(), st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=9))
    def test_every_probe_point(self, m, n, extra, seed):
        p = m.field.modulus
        points = reference_probe_points(m.field, m.r, n + extra, seed)
        want = [reference_pencil_rank(m, pt, p) for pt in points]
        assert list(kronecker._sampled_ranks(m, n + extra, seed)) == want

    @settings(max_examples=100, deadline=None)
    @given(bulk_reps(), st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=9))
    def test_prefix(self, m, n, extra, seed):
        # n points, then n + extra on the same representation, equal n + extra
        # at once on a fresh copy: the decided points stored for n are kept
        fresh = KroneckerRep(m.r, m.dim, m.mats, m.field)
        first = list(kronecker._sampled_ranks(m, n, seed))
        longer = list(kronecker._sampled_ranks(m, n + extra, seed))
        assert longer == list(kronecker._sampled_ranks(fresh, n + extra, seed))
        assert first == longer[:n]

    def test_mostly_zero_coordinates_over_gf2(self):
        # arrow t is the unit at (t, t), so the pencil's rank is the number of
        # non-zero coordinates; over GF(2) most points have a zero coordinate
        units = tuple(ExactMatrix.from_rows(GF(2), [{t: 1} if i == t else {} for i in range(3)], 3)
                      for t in range(3))
        m = KroneckerRep(3, DimVector(3, 3), units, GF(2))
        assert kronecker._pencil_plan(m) == (3, {0, 1, 2})
        points = kronecker._draw_probe_points(2, 3, 200, 3).points
        want = [sum(map(bool, pt)) for pt in points]
        assert want.count(3) < 50
        assert want == [reference_pencil_rank(m, pt, 2) for pt in points]
        assert list(kronecker._sampled_ranks(m, 200, 3)) == want


def small_witnesses():
    """(r, c, d) of every realizable type with r = 2..4 and a + b <= 20."""
    return [(r, c, d) for r in (2, 3, 4) for d in range(11) for c in range(21 - 2 * d)
            if classify(r, c, d).accepted]


@pytest.mark.parametrize("seed", [0, 1])
def test_relabelled_arrows_keep_every_sampled_rank(seed):
    # the sampled checks rank each point from one peel of the arrows'
    # union; every point must agree with the pencil eliminated whole, on
    # both sides of the transpose
    witnesses = small_witnesses()
    assert len(witnesses) == 86
    for r, c, d in witnesses:
        rep = realize(r, c, d).rep
        for m in (rep, dual(rep)):
            want = [reference_pencil_rank(m, pt) for pt in probe_alphas(QQ, r, 200, seed)]
            assert list(kronecker._sampled_ranks(m, 200, seed)) == want, (r, c, d, m.dim)


def test_sweep_witnesses_get_a_pencil_plan(witness_sweep):
    # the sampled checks rank a point from the pivot count only through a
    # plan, which needs a union that peels fully with no two arrows at one
    # position; every acceptance-sweep witness and its dual must have one
    for r, c, d, w in witness_sweep:
        for m in (w.rep, dual(w.rep)):
            positions = [(i, j) for mat in m.mats
                         for i, row in enumerate(mat.sparse_rows()) for j in row]
            assert len(positions) == len(set(positions)), (r, c, d, m.dim)
            assert kronecker._pencil_plan(m) is not None, (r, c, d, m.dim)


class TestProbePlanPrefix:
    """probe_alphas for n samples is a prefix of the plan for any larger count."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([QQ, GF(2), GF(7)]), st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=50))
    def test_prefix(self, field, r, n, extra, seed):
        assert probe_alphas(field, r, n, seed) == probe_alphas(field, r, n + extra, seed)[:n]

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    def test_counts_below_and_above_r(self, field):
        r = 4
        long_plan = probe_alphas(field, r, 30, 7)
        for n in (1, 2, r - 1, r, r + 1, 29):
            assert probe_alphas(field, r, n, 7) == long_plan[:n]


def test_probe_plan_is_drawn_once_and_never_shared():
    kronecker._draw_probe_points.cache_clear()
    want = reference_probe_points(GF(7), 3, 40, 9)
    plan = probe_alphas(GF(7), 3, 40, 9)
    plan[5][0] = 12345
    plan.append([1, 1, 1])
    assert probe_alphas(GF(7), 3, 40, 9) == want
    m = build_echelon_rep(select_phi(3, 2, 4), GF(7))
    assert list(kronecker._sampled_ranks(m, 40, 9)) == [reference_pencil_rank(m, pt, 7)
                                                        for pt in want]
    info = kronecker._draw_probe_points.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101), GF(1000003)], ids=repr)
def test_probe_plan_matches_randint_reference(field):
    """The package's draws give the plan that random.randint gives, point for point."""
    for seed in range(50):
        for r in range(2, 6):
            assert probe_alphas(field, r, 200, seed) == reference_probe_points(field, r, 200, seed)


class TestConstantJordanType:
    def test_p2_plus_p2(self):
        for r in (2, 3):
            mm = direct_sum(explicit_p2(r), explicit_p2(r))
            ok, jt, _ = is_constant_jordan_type(mm, 40, 0)
            assert ok and jt == JordanType(2 * r - 2, 2)

    def test_partial_support_is_not_constant(self):
        mats = (ExactMatrix.identity(QQ, 1),
                ExactMatrix.zeros(QQ, 1, 1),
                ExactMatrix.zeros(QQ, 1, 1))
        m = KroneckerRep(3, DimVector(1, 1), mats)
        ok, jt, record = is_constant_jordan_type(m, 40, 0)
        assert not ok and jt is None
        assert record["ranks_seen"] == [0, 1]

    def test_simples_are_constant(self):
        ok, jt, _ = is_constant_jordan_type(simple_rep(4, (0, 1)), 10, 0)
        assert ok and jt == JordanType(1, 0)


class TestDuality:
    def test_involution(self):
        m = explicit_p2(3)
        assert dual(dual(m)) == m

    def test_dual_of_simple(self):
        assert dual(simple_rep(3, (0, 1))) == simple_rep(3, (1, 0))

    def test_jordan_type_preserved(self):
        m = explicit_p2(4)
        dm = dual(m)
        for alpha in probe_alphas(QQ, 4, 10, 9):
            assert jordan_type_at(m, alpha) == jordan_type_at(dm, alpha)


class TestIJT:
    @pytest.mark.parametrize("r", RS)
    def test_minimal_member(self, r):
        ok, _ = is_in_ijt(r, r - 1, 1)
        assert ok
        assert tits_form(r, (1, r)) == 1

    def test_paper_rejection_r2(self):
        ok, reason = is_in_ijt(2, 0, 2)
        assert not ok and "c" in reason

    def test_member_r3(self):
        assert is_in_ijt(3, 3, 2)[0]
        assert tits_form(3, (2, 5)) == -1

    def test_xi_examples(self):
        assert xi(3, 2) == DimVector(2, 5)
        assert xi(1, 0) == DimVector(0, 1)

    def test_xi_round_trip(self):
        for c in range(0, 8):
            for d in range(0, 8):
                assert xi_inverse(*xi(c, d)) == JordanType(c, d)
        with pytest.raises(ValueError):
            xi_inverse(3, 2)


class TestModuleOperators:
    def test_products_vanish(self):
        ops = to_module_operators(explicit_p2(3))
        for x in ops:
            for y in ops:
                assert (x @ y).is_zero()

    def test_rank_matches_pencil(self):
        m = explicit_p2(3)
        ops = to_module_operators(m)
        for alpha in probe_alphas(QQ, 3, 10, 4):
            combo = ExactMatrix.zeros(QQ, 4, 4)
            for coeff, op in zip(alpha, ops):
                combo = combo + op.scale(coeff)
            assert combo.rank() == pencil(m, alpha).rank()

    def test_simple_has_zero_operators(self):
        ops = to_module_operators(simple_rep(3, (1, 0)))
        assert all(op.rows == 1 and op.is_zero() for op in ops)


class TestARChains:
    def test_r3_chain(self):
        assert preprojective_dim_vectors(3, 21) == [
            DimVector(0, 1), DimVector(1, 3), DimVector(3, 8), DimVector(8, 21)]

    def test_r2_chain(self):
        assert preprojective_dim_vectors(2, 5)[:5] == [
            DimVector(0, 1), DimVector(1, 2), DimVector(2, 3),
            DimVector(3, 4), DimVector(4, 5)]

    def test_real_root_invariant(self):
        for r in RS:
            for v in preprojective_dim_vectors(r, 400):
                assert tits_form(r, v) == 1
                assert v.a < v.b

    def test_strict_growth(self):
        for r in RS:
            chain = preprojective_dim_vectors(r, 400)
            for p, q in zip(chain[1:], chain[2:]):
                assert p.a < q.a and p.b < q.b

    def test_preinjective_mirror(self):
        assert preinjective_dim_vectors(3, 21) == [
            DimVector(1, 0), DimVector(3, 1), DimVector(8, 3), DimVector(21, 8)]
        for v in preinjective_dim_vectors(4, 100):
            assert v.a > v.b


class TestSerialization:
    def test_round_trip(self):
        m = explicit_p2(3)
        blob = json.loads(json.dumps(m.to_json()))
        assert KroneckerRep.from_json(blob) == m

    def test_round_trip_gf(self):
        f = GF(2)
        mats = tuple(ExactMatrix(f, [[1], [i % 2]]) for i in range(3))
        m = KroneckerRep(3, DimVector(1, 2), mats, f)
        assert KroneckerRep.from_json(json.loads(m.to_json_str())) == m

    def test_schema_fields(self):
        d = explicit_p2(3).to_json()
        assert d["r"] == 3 and d["dim"] == [1, 3]
        assert d["field"] == {"type": "Q"}
        assert d["mats"][0] == [["1"], ["0"], ["0"]]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            KroneckerRep(3, DimVector(1, 2), tuple(ExactMatrix.zeros(QQ, 1, 2) for _ in range(3)))
        with pytest.raises(ValueError):
            KroneckerRep(3, DimVector(1, 1), tuple(ExactMatrix.zeros(QQ, 1, 1) for _ in range(2)))
