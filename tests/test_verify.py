"""Hom/Ext, the Euler identity, locality, bricks, and the sampled checks."""

import itertools
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference_impls import (
    explicit_p2,
    reference_end_is_local,
    reference_intertwining_rows,
    reference_sparse_int_echelon,
    reference_sparse_int_kernel,
)

from kronjord.bgp import build_preprojective
from kronjord.cover import (
    TreeRep,
    build_indecomposable_tree_rep,
    build_root_vector,
    build_source_regular,
    push_down,
)
from kronjord.echelon import build_echelon_rep, select_phi
from kronjord.exactmat import GF, QQ, ExactMatrix, SparseSystem, _dense_rref
from kronjord.kronecker import (
    DimVector,
    KroneckerRep,
    direct_sum,
    dual,
    euler_form,
    is_constant_jordan_type,
    simple_rep,
)
from kronjord import kronecker, verify
from kronjord.pipeline import CertifiedWitness, realize, validate_witness
from kronjord.verify import (
    ekp_sample_check,
    eip_sample_check,
    end_is_local,
    ext_dim,
    hom_space,
    is_brick,
    restriction_check,
)


def cover_rep(r, a, b):
    q = build_source_regular(r, a)
    return push_down(build_indecomposable_tree_rep(q, build_root_vector(q, a, b)))


@st.composite
def small_q_reps(draw):
    """Representations over Q with r 2..4, a <= 3, b <= 4 and a few small entries."""
    r, a, b = draw(st.integers(2, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 4))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    mats = tuple(ExactMatrix(QQ, [[draw(entry) for _ in range(a)] for _ in range(b)], b, a)
                 for _ in range(r))
    return KroneckerRep(r, DimVector(a, b), mats)


def tube_rep_r2():
    """Regular indecomposable of the 2-Kronecker quiver with End of dim 2."""
    jordan_block = ExactMatrix(QQ, [[0, 1], [0, 0]])
    return KroneckerRep(2, DimVector(2, 2), (ExactMatrix.identity(QQ, 2), jordan_block))


class TestHom:
    def test_distinct_simples(self):
        assert hom_space(simple_rep(3, (1, 0)), simple_rep(3, (0, 1))).dim == 0
        assert hom_space(simple_rep(3, (0, 1)), simple_rep(3, (1, 0))).dim == 0

    def test_p2_is_brick(self):
        assert hom_space(explicit_p2(3), explicit_p2(3)).dim == 1

    def test_additivity(self):
        m = explicit_p2(3)
        assert hom_space(m, direct_sum(m, m)).dim == 2 * hom_space(m, m).dim

    def test_intertwining_equations_hold(self):
        m = cover_rep(3, 2, 5)
        n = explicit_p2(3)
        hs = hom_space(n, m)
        for f1, f2 in hs.basis:
            for t in range(3):
                assert f2 @ n.mats[t] == m.mats[t] @ f1

    def test_arrow_count_mismatch(self):
        with pytest.raises(ValueError):
            hom_space(explicit_p2(3), explicit_p2(4))


class TestExt:
    def test_projective_has_no_ext(self):
        p2 = explicit_p2(3)
        for other in (p2, simple_rep(3, (0, 1)), simple_rep(3, (1, 0)), cover_rep(3, 2, 5)):
            assert ext_dim(p2, other) == 0

    def test_simples_cross_ext(self):
        # the injective simple against the projective simple: r extensions
        assert ext_dim(simple_rep(3, (1, 0)), simple_rep(3, (0, 1))) == 3
        assert ext_dim(simple_rep(5, (1, 0)), simple_rep(5, (0, 1))) == 5
        # the other order is projective-first and vanishes
        assert ext_dim(simple_rep(3, (0, 1)), simple_rep(3, (1, 0))) == 0

    def test_euler_identity_zoo(self):
        reps = [
            simple_rep(3, (1, 0)),
            simple_rep(3, (0, 1)),
            push_down(build_preprojective(3, 0, 1)),
            explicit_p2(3),
            push_down(build_preprojective(3, 3, 8)),
            build_echelon_rep(select_phi(3, 2, 4)),
            build_echelon_rep(select_phi(3, 3, 5)),
            cover_rep(3, 2, 5),
            dual(explicit_p2(3)),
            dual(cover_rep(3, 2, 5)),
            direct_sum(explicit_p2(3), simple_rep(3, (0, 1))),
        ]
        pairs = 0
        for m in reps:
            for n in reps:
                lhs = hom_space(m, n).dim - ext_dim(m, n)
                assert lhs == euler_form(3, m.dim, n.dim), (m.dim, n.dim)
                pairs += 1
        assert pairs >= 20


class TestLocality:
    def test_p2_local(self):
        assert end_is_local(explicit_p2(3))

    def test_decomposable_not_local(self):
        m = explicit_p2(3)
        assert not end_is_local(direct_sum(m, m))

    def test_distinct_simples_sum_not_local(self):
        assert not end_is_local(direct_sum(simple_rep(3, (1, 0)), simple_rep(3, (0, 1))))

    def test_local_non_brick(self):
        # regular rep with a nontrivial radical: local but End has dim 2
        t = tube_rep_r2()
        assert end_is_local(t)
        assert not is_brick(t)
        assert hom_space(t, t).dim == 2

    def test_folded_tree_witness_local_non_brick(self):
        # folding a tree witness can pick up nilpotent endomorphisms from
        # overlapping translates: indecomposable, yet not a brick
        q = build_source_regular(3, 5)
        tree = build_indecomposable_tree_rep(q, build_root_vector(q, 5, 12))
        rep = push_down(tree)
        assert hom_space(rep, rep).dim == 2
        assert end_is_local(rep)
        assert not is_brick(rep)

    def test_prime_field_unsupported(self):
        f = GF(2)
        mats = tuple(ExactMatrix(f, [[1], [0]]) for _ in range(3))
        m = KroneckerRep(3, DimVector(1, 2), mats, f)
        with pytest.raises(ValueError):
            end_is_local(m)


def rows_in_order(rows_nvars):
    rows, nvars = rows_nvars
    return [list(row.items()) for row in rows], nvars


class TestIntertwiningRowsAgainstReference:
    """Walking the arrow columns gives the entry-wise reference's rows, in order."""

    def test_sweep_witnesses(self, witness_sweep):
        for r, c, d, w in witness_sweep:
            rep = w.rep
            assert rows_in_order(verify._intertwining_rows(rep, rep)) == \
                rows_in_order(reference_intertwining_rows(rep, rep)), (r, c, d)

    @pytest.mark.parametrize("m, n", [
        (direct_sum(cover_rep(3, 2, 5), cover_rep(3, 2, 5)),
         direct_sum(cover_rep(3, 2, 5), cover_rep(3, 2, 5))),
        (cover_rep(3, 2, 5), explicit_p2(3)),
        (explicit_p2(3), dual(cover_rep(3, 2, 5))),
        (simple_rep(3, (1, 0)), simple_rep(3, (0, 1))),
        (build_echelon_rep(select_phi(3, 2, 4), GF(5)), build_echelon_rep(select_phi(3, 2, 4), GF(5))),
    ], ids=["M+M", "M-to-P2", "P2-to-dual", "S1-to-S2", "GF5"])
    def test_pairs(self, m, n):
        assert rows_in_order(verify._intertwining_rows(m, n)) == \
            rows_in_order(reference_intertwining_rows(m, n))


class TestLocalityAgainstReference:
    """The trace form on the representation agrees with the regular-representation reference."""

    def test_sweep_cover_and_shift_witnesses(self, witness_sweep):
        checked = 0
        for r, c, d, w in witness_sweep:
            if w.indec_evidence != "local-endo":
                continue
            assert end_is_local(w.rep) == reference_end_is_local(w.rep) is True, (r, c, d)
            checked += 1
        assert checked >= 10

    def test_end_dim_7_cover_witness(self):
        rep = cover_rep(3, 13, 30)
        assert hom_space(rep, rep).dim == 7
        assert end_is_local(rep) == reference_end_is_local(rep) is True

    @pytest.mark.parametrize("rep", [
        direct_sum(explicit_p2(3), explicit_p2(3)),
        direct_sum(cover_rep(3, 2, 5), cover_rep(3, 2, 5)),
        direct_sum(explicit_p2(3), cover_rep(3, 2, 5)),
        direct_sum(simple_rep(3, (1, 0)), simple_rep(3, (0, 1))),
    ], ids=["P2+P2", "M+M", "P2+M", "S1+S2"])
    def test_decomposables(self, rep):
        assert end_is_local(rep) == reference_end_is_local(rep) is False

    def test_local_non_bricks(self):
        q = build_source_regular(3, 5)
        folded = push_down(build_indecomposable_tree_rep(q, build_root_vector(q, 5, 12)))
        for rep in (tube_rep_r2(), folded):
            assert hom_space(rep, rep).dim == 2
            assert end_is_local(rep) == reference_end_is_local(rep) is True

    def test_end_dim_12_cover_witness_local(self):
        rep = cover_rep(3, 26, 64)
        assert hom_space(rep, rep).dim == 12
        assert end_is_local(rep)

    @settings(max_examples=150, deadline=None)
    @given(small_q_reps())
    def test_random_small_representations(self, rep):
        assert end_is_local(rep) == reference_end_is_local(rep)
        if rep.total_dim():
            assert not end_is_local(direct_sum(rep, rep))

    def test_forms_no_product_of_endomorphisms(self, monkeypatch):
        # the r=3 (50, 120) cover witness, End of dimension 81: the trace form
        # is read off the basis's rows, so the locality step allocates little
        rep = cover_rep(3, 50, 120)
        endos = hom_space(rep, rep)
        assert endos.dim == 81
        monkeypatch.setattr(verify, "hom_space", lambda m, n: endos)
        tracemalloc.start()
        try:
            local = end_is_local(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert local and peak < 2 * 2**20


class TestBrick:
    def test_echelon_witnesses(self):
        assert is_brick(build_echelon_rep(select_phi(3, 2, 4)))
        assert is_brick(build_echelon_rep(select_phi(4, 3, 8)))

    def test_doubling_breaks_brick(self):
        m = explicit_p2(3)
        assert not is_brick(direct_sum(m, m))

    def test_simples_are_bricks(self):
        assert is_brick(simple_rep(3, (1, 0)))
        assert is_brick(simple_rep(3, (0, 1)))

    def test_brick_implies_local(self):
        for rep in (explicit_p2(3), build_echelon_rep(select_phi(3, 2, 4)), cover_rep(3, 2, 5)):
            assert is_brick(rep)
            assert end_is_local(rep)

    @pytest.mark.parametrize("rep", [
        explicit_p2(3),
        build_echelon_rep(select_phi(3, 2, 4)),
        build_echelon_rep(select_phi(4, 3, 8)),
        build_echelon_rep(select_phi(3, 2, 4), GF(5)),
        cover_rep(3, 2, 5),
        cover_rep(3, 5, 12),
        simple_rep(3, (1, 0)),
        simple_rep(3, (0, 1)),
        tube_rep_r2(),
        direct_sum(explicit_p2(3), explicit_p2(3)),
        direct_sum(simple_rep(3, (1, 0)), simple_rep(3, (0, 1))),
    ], ids=["P2", "echelon-2-4", "echelon-3-8", "echelon-GF5", "cover-2-5", "folded-5-12",
            "S1", "S2", "tube", "P2+P2", "S1+S2"])
    def test_agrees_with_the_hom_space_dimension(self, rep):
        assert is_brick(rep) == (hom_space(rep, rep).dim == 1)

    def test_agrees_with_the_hom_space_dimension_on_the_sweep(self, witness_sweep):
        for r, c, d, w in witness_sweep:
            assert is_brick(w.rep) == (hom_space(w.rep, w.rep).dim == 1), (r, c, d)


def two_line_tree(r=3):
    """Two sources sending e1 and e2 into one sink of dimension 2: a direct sum."""
    e1, e2 = ExactMatrix(QQ, [[1], [0]]), ExactMatrix(QQ, [[0], [1]])
    return TreeRep(r, {(): 1, (1,): 2, (1, 2): 1}, {((), (1,)): e1, ((1, 2), (1,)): e2})


class TestTreeBrick:
    """The tree End system certifies indecomposability of the push-down."""

    def test_sweep_tree_witnesses(self, witness_sweep):
        checked = 0
        for r, c, d, w in witness_sweep:
            if w.indec_evidence == "local-endo":
                assert is_brick(w.tree) and end_is_local(push_down(w.tree)), (r, c, d)
                checked += 1
        assert checked >= 25

    @pytest.mark.parametrize("c, d, end_dim", [(17, 13, 7), (15, 11, 6), (50, 31, 2),
                                               (70, 50, 81)],
                             ids=["cover-13-30", "cover-11-26", "shift-31-81", "cover-50-120"])
    def test_large_end_witnesses(self, c, d, end_dim):
        # the push-downs are local non-bricks; their trees are bricks
        tree = realize(3, c, d).tree
        down = push_down(tree)
        assert hom_space(down, down).dim == end_dim
        assert is_brick(tree) and end_is_local(down)

    def test_decomposable_tree(self):
        tree = two_line_tree()
        down = push_down(tree)
        assert down.dim == DimVector(2, 2)
        assert not is_brick(tree)
        assert not end_is_local(down)

    def test_end_system_counts_the_unknowns_of_the_tree(self):
        tree = two_line_tree()
        rows, nvars = verify._intertwining_rows(tree, tree)
        assert nvars == 1 + 4 + 1 and len(rows) == 4

    @pytest.mark.parametrize("r, a, b, p", [(3, 5, 12, 107), (4, 4, 13, 109), (3, 3, 7, 101)])
    def test_prime_field_cover_trees(self, r, a, b, p):
        # the cover shapes of the modp-verify benchmark deck
        q = build_source_regular(r, a)
        tree = build_indecomposable_tree_rep(q, build_root_vector(q, a, b), field=GF(p))
        assert tree.field == GF(p) and is_brick(tree)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="arrows differ"):
            verify._intertwining_rows(two_line_tree(), explicit_p2(3))


def gf_cover_rep(r, a, b, p):
    q = build_source_regular(r, a)
    return push_down(build_indecomposable_tree_rep(q, build_root_vector(q, a, b), field=GF(p)))


def zero_rep(a, b, r=3):
    return KroneckerRep(r, DimVector(a, b), tuple(ExactMatrix.zeros(QQ, b, a) for _ in range(r)))


def copy_of(m):
    """An equal representation that is another object, with memos of its own."""
    return KroneckerRep(m.r, m.dim, m.mats, m.field)


def hom_vectors(hs):
    """Each Hom basis pair as the dict of its unknowns, f1 then f2 row-major."""
    out = []
    for f1, f2 in hs.basis:
        vec = {i * f1.cols + j: x for i, row in enumerate(f1.sparse_rows()) for j, x in row.items()}
        off = f1.rows * f1.cols
        vec.update((off + i * f2.cols + j, x)
                   for i, row in enumerate(f2.sparse_rows()) for j, x in row.items())
        out.append(vec)
    return out


def reference_end(m):
    """Hom(m, m) kernel vectors and the rank of End(m)'s system, from the reference code."""
    rows, nvars = reference_intertwining_rows(m, m)
    p = m.field.modulus
    if p is None:
        rank = len(reference_sparse_int_echelon(rows, nvars))
    else:
        rank = len(_dense_rref([[row.get(j, 0) for j in range(nvars)] for row in rows], nvars, p)[1])
    return reference_sparse_int_kernel(rows, nvars, p), nvars, rank


END_CALLS = {
    "hom": lambda m: hom_space(m, m),
    "brick": is_brick,
    "ext": lambda m: ext_dim(m, m),
}

MEMO_REPS = {
    "P2": lambda: explicit_p2(3),
    "tube": tube_rep_r2,
    "cover-2-5": lambda: cover_rep(3, 2, 5),
    "folded-5-12": lambda: cover_rep(3, 5, 12),
    "echelon-GF5": lambda: build_echelon_rep(select_phi(3, 2, 4), GF(5)),
    # the one modp-verify End system that is not a difference system
    "folded-5-12-GF107": lambda: gf_cover_rep(3, 5, 12, 107),
    "P2+P2": lambda: direct_sum(explicit_p2(3), explicit_p2(3)),
    "M+M-GF101": lambda: direct_sum(gf_cover_rep(3, 3, 7, 101), gf_cover_rep(3, 3, 7, 101)),
    "S1": lambda: simple_rep(3, (1, 0)),
    "S2": lambda: simple_rep(3, (0, 1)),
    "zero-0-3": lambda: zero_rep(0, 3),
    "zero-2-0": lambda: zero_rep(2, 0),
    "zero-0-0": lambda: zero_rep(0, 0),
}


class TestEndMemo:
    """End(m)'s system is kept on m and never changes a Hom, Ext or brick answer."""

    @pytest.mark.parametrize("make", MEMO_REPS.values(), ids=MEMO_REPS.keys())
    def test_every_order_agrees_with_a_fresh_copy_and_the_reference(self, make):
        m = make()
        kernel, nvars, rank = reference_end(m)
        want = {"hom": len(kernel), "brick": nvars - rank == 1,
                "ext": m.r * m.dim.a * m.dim.b - rank}
        for order in itertools.permutations(END_CALLS):
            one = copy_of(m)
            for name in order:
                got = END_CALLS[name](one)
                fresh = END_CALLS[name](copy_of(m))
                assert got == fresh, (order, name)
                if name == "hom":
                    assert hom_vectors(got) == kernel, order
                    got = got.dim
                assert got == want[name], (order, name)
            assert isinstance(one._end_memo["system"], SparseSystem)

    def test_memo_stays_out_of_equality_hash_repr_and_json(self):
        m, fresh = cover_rep(3, 5, 12), cover_rep(3, 5, 12)
        text = m.to_json_str()
        hom_space(m, m)
        assert m._end_memo and not fresh._end_memo
        assert m == fresh and hash(m) == hash(fresh)
        assert m.to_json_str() == text
        assert "_end_memo" not in repr(m) and "SparseSystem" not in repr(m)

    def test_dual_and_sum_start_empty(self):
        m = cover_rep(3, 2, 5)
        assert is_brick(m) and m._end_memo
        assert not dual(m)._end_memo and not direct_sum(m, m)._end_memo

    def test_one_rep_shared_by_threads(self):
        # the non-difference GF(107) system: the kernel and the rank are two
        # eliminations, and every thread asks for both in its own order
        m = gf_cover_rep(3, 5, 12, 107)
        want = {name: call(copy_of(m)) for name, call in END_CALLS.items()}
        orders = list(itertools.permutations(END_CALLS))
        shared = copy_of(m)
        got = {}
        start = threading.Barrier(12, timeout=60)

        def work(k):
            start.wait()
            got[k] = all(END_CALLS[name](shared) == want[name] for name in orders[k % 6])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == {k: True for k in range(12)}
        assert list(shared._end_memo) == ["system"]


class TestEndSystemBuiltOnce:
    """Counts of ``_intertwining_rows`` calls: End(m)'s rows are built once per object."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The (m, n) pair of every intertwining system built from here on."""
        calls = []
        rows = verify._intertwining_rows
        monkeypatch.setattr(verify, "_intertwining_rows",
                            lambda m, n: calls.append((m, n)) or rows(m, n))
        return calls

    @pytest.mark.parametrize("make", [lambda: cover_rep(3, 5, 12),
                                      lambda: gf_cover_rep(3, 5, 12, 107)], ids=["Q", "GF107"])
    def test_hom_brick_and_ext_build_one_system(self, built, make):
        m = make()
        hom_space(m, m)
        is_brick(m)
        ext_dim(m, m)
        end_is_local(m) if m.field == QQ else hom_space(m, m)
        assert built == [(m, m)]

    def test_an_equal_copy_builds_its_own(self, built):
        m = cover_rep(3, 2, 5)
        other = copy_of(m)
        hom_space(m, m)
        assert hom_space(m, other).dim == hom_space(m, other).dim == 1
        assert built == [(m, m), (m, other), (m, other)]

    def test_trees_certify_from_scratch_on_every_call(self, built):
        w = realize(3, 7, 5)
        assert w.indec_evidence == "local-endo"
        assert built == [(w.tree, w.tree)]   # realize certifies its tree too
        built.clear()
        data = w.to_json()
        for _ in range(2):
            assert validate_witness(data)[0]
        assert len(built) == 2
        assert all(isinstance(m, TreeRep) and n is m for m, n in built)
        assert is_brick(w.tree) and is_brick(w.tree)
        assert built[2:] == [(w.tree, w.tree)] * 2


class TestSampledChecks:
    def test_echelon_certified_passes(self):
        rep = build_echelon_rep(select_phi(3, 2, 4))
        assert ekp_sample_check(rep, 200, 0)

    def test_duality_swaps_kernels_and_images(self):
        rep = cover_rep(3, 2, 5)
        assert ekp_sample_check(rep, 100, 1)
        assert eip_sample_check(dual(rep), 100, 1)
        assert not eip_sample_check(rep, 100, 1)

    def test_partial_support_fails(self):
        mats = (ExactMatrix.identity(QQ, 1),
                ExactMatrix.zeros(QQ, 1, 1),
                ExactMatrix.zeros(QQ, 1, 1))
        m = KroneckerRep(3, DimVector(1, 1), mats)
        assert not ekp_sample_check(m, 10, 0)
        assert not eip_sample_check(m, 10, 0)

    @pytest.fixture
    def ranked(self, monkeypatch):
        """One entry per point the sampled checks rank."""
        calls = []
        rank = kronecker._pencil_rank
        monkeypatch.setattr(kronecker, "_pencil_rank",
                            lambda *args: calls.append(1) or rank(*args))
        return calls

    @pytest.mark.parametrize("check", [ekp_sample_check, eip_sample_check, restriction_check,
                                       kronecker.generic_rank])
    def test_no_samples_is_refused(self, check):
        with pytest.raises(ValueError, match="need at least one sample"):
            check(cover_rep(3, 2, 5), 0, 0)

    def test_ekp_stops_at_the_first_failing_point(self, ranked):
        # the zero column of the simple summand puts a kernel vector in every pencil
        rep = direct_sum(cover_rep(3, 2, 5), simple_rep(3, (1, 0)))
        assert not ekp_sample_check(rep, 200, 0)
        assert len(ranked) == 1

    class StoreLog(dict):
        """A rank cache that logs the index of every rank stored into it."""

        def __init__(self):
            super().__init__()
            self.stored, self.one_by_one = [], 0

        def __setitem__(self, k, v):
            self.stored.append(k)
            self.one_by_one += 1
            super().__setitem__(k, v)

        def update(self, other):
            self.stored.extend(other)
            super().update(other)

    def test_each_point_is_ranked_once_per_rep(self, ranked):
        # every rank found is stored: the plan's decided points together,
        # each other point as _pencil_rank ranks it
        rep = cover_rep(3, 2, 5)
        logs = rep._probe_ranks[4], rep._probe_ranks[5] = self.StoreLog(), self.StoreLog()
        is_constant_jordan_type(rep, 100, 4)
        restriction_check(rep, 200, 4)
        assert ekp_sample_check(rep, 200, 4)
        assert sorted(logs[0].stored) == list(range(200))
        assert len(ranked) == logs[0].one_by_one > 0
        assert ekp_sample_check(rep, 50, 5)
        assert sorted(logs[1].stored) == list(range(50))
        assert len(ranked) == logs[0].one_by_one + logs[1].one_by_one


class TestRestriction:
    def test_simple_passes_form_inequality(self):
        ok, detail = restriction_check(simple_rep(3, (1, 0)), 20, 0)
        assert ok and (detail["d"], detail["c"]) == (0, 1) and detail["q"] == 1

    def test_witnesses_pass(self):
        for rep in (explicit_p2(3), cover_rep(3, 2, 5), build_echelon_rep(select_phi(3, 2, 4))):
            ok, _ = restriction_check(rep, 100, 0)
            assert ok

    def test_decomposable_counterexample(self):
        # constant type with q = 4 > 1: the indecomposability hypothesis is sharp
        mm = direct_sum(explicit_p2(3), explicit_p2(3))
        ok, detail = restriction_check(mm, 100, 0)
        assert not ok
        assert detail["q"] == 4

    @pytest.mark.parametrize("rep", [
        cover_rep(3, 2, 5),
        direct_sum(explicit_p2(3), explicit_p2(3)),
        KroneckerRep(3, DimVector(1, 1), (ExactMatrix.identity(QQ, 1), ExactMatrix.zeros(QQ, 1, 1),
                                          ExactMatrix.zeros(QQ, 1, 1))),
    ], ids=["cover", "P2+P2", "partial-support"])
    def test_shared_ranks_do_not_depend_on_call_order(self, rep):
        def fresh():
            return KroneckerRep.from_json(rep.to_json())

        cjt = is_constant_jordan_type(fresh(), 100, 3)
        restriction = restriction_check(fresh(), 200, 3)
        one = fresh()
        assert is_constant_jordan_type(one, 100, 3) == cjt
        assert restriction_check(one, 200, 3) == restriction
        other = fresh()
        assert restriction_check(other, 200, 3) == restriction
        assert is_constant_jordan_type(other, 100, 3) == cjt
