"""Cover subquivers, root vectors, tree witnesses, thin zigzags, push-down."""

import inspect
import itertools
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import (
    max_cover_b,
    reference_build_indecomposable_tree_rep,
    reference_source_regular_growth,
)

from kronjord.bgp import tau_inverse_tree
from kronjord.cover import (
    TreeQuiver,
    TreeRep,
    _first_sources,
    build_indecomposable_tree_rep,
    build_root_vector,
    build_source_regular,
    edge_color,
    is_inj,
    is_reduced,
    is_source,
    neighbor_via,
    neighbors,
    push_down,
    source_regular_bound_check,
    thin_path_rep,
)
from kronjord.exactmat import GF, MAX_JSON_R, QQ, ExactMatrix
from kronjord.kronecker import DimVector, tits_form
from kronjord.verify import ekp_sample_check, end_is_local, is_brick


@st.composite
def quivers_with_alpha(draw):
    """A connected source-regular quiver of up to 31 sources, and an alpha
    within the builder's bounds.

    The top vertex is any reduced word of length 0..4, a source or a sink,
    and every source is it or a descendant of it, so the shallowest vertex
    is the top one or, for a top source other than the root, its parent.
    """
    r = draw(st.integers(2, 5))
    color = lambda v: st.sampled_from([c for c in range(1, r + 1) if v[-1:] != (c,)])
    top = ()
    for _ in range(draw(st.integers(0, 4))):
        top += (draw(color(top)),)
    first = top if is_source(top) else top + (draw(color(top)),)
    verts = {first, *neighbors(first, r)}
    for _ in range(draw(st.integers(0, 30))):
        # a sink never has all its children in the quiver, so there is one to add
        x = draw(st.sampled_from(sorted(x for y in verts if not is_source(y)
                                        for x in neighbors(y, r)
                                        if len(x) > len(y) and x not in verts)))
        verts.update([x, *neighbors(x, r)])
    q = TreeQuiver(r, frozenset(verts))
    alpha = {v: 1 if is_source(v) else draw(st.integers(1, max(1, q.degree(v) - 1)))
             for v in sorted(verts)}
    return q, alpha


def sources_by_length_then_address(r, n):
    """The first n sources of the cover in (length, address) order, one length at a time."""
    out, level = [], [()]
    while len(out) < n:
        out += level
        level = sorted(w for x in level for c in range(1, r + 1) for d in range(1, r + 1)
                       if is_reduced(w := x + (c, d)))
    return out[:n]


class TestAddresses:
    def test_neighbor_round_trip(self):
        v = (1, 2, 1)
        for c in range(1, 4):
            w = neighbor_via(v, c)
            assert neighbor_via(w, c) == v

    def test_all_neighbors_distinct(self):
        v = (2, 3)
        nbrs = [neighbor_via(v, c) for c in range(1, 5)]
        assert len(set(nbrs)) == 4

    def test_reduced_word_validation(self):
        with pytest.raises(ValueError):
            TreeQuiver(3, frozenset({(1, 1)}))

    def test_connectivity_validation(self):
        with pytest.raises(ValueError):
            TreeQuiver(3, frozenset({(), (1, 2)}))

    def test_two_disjoint_edges_are_not_connected(self):
        # every vertex has a neighbour, yet the set is two components
        with pytest.raises(ValueError, match="not connected"):
            TreeQuiver(3, frozenset({(), (1,), (2, 3), (2, 3, 1)}))

    def test_tree_rep_rejects_colors_outside_range(self):
        one = ExactMatrix.identity(QQ, 1)
        with pytest.raises(ValueError, match=r"address \(7,\) uses colors outside 1\.\.3"):
            TreeRep(3, {(): 1, (7,): 1}, {((), (7,)): one})
        with pytest.raises(ValueError, match="colors outside 1..2"):
            TreeRep(2, {(0,): 1})
        with pytest.raises(ValueError, match="is not reduced"):
            TreeRep(3, {(1, 1): 1})

    def test_tree_rep_allocates_nothing_for_its_r(self):
        # colors are checked against each address, never against all of 1..r
        data = {"r": 2000000, "vertices": [{"addr": [], "dim": 1}], "edges": []}
        tracemalloc.start()
        try:
            tree = TreeRep.from_json(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.r == 2000000 and peak < 2**20

    def test_tree_reader_bounds_r(self):
        # push_down would build an r-tuple of arrows: a huge r is named before any is made
        def one_vertex(r):
            return {"r": r, "vertices": [{"addr": [], "dim": 1}], "edges": []}

        assert TreeRep.from_json(one_vertex(MAX_JSON_R)).r == MAX_JSON_R
        for r in (MAX_JSON_R + 1, 10**12):
            with pytest.raises(ValueError, match=f"tree field 'r' must be at most {MAX_JSON_R}, "
                                                 f"got {r}"):
                TreeRep.from_json(one_vertex(r))

    @pytest.mark.parametrize("dims, mat", [
        ({(): 1}, ExactMatrix(QQ, [], 0, 1)),
        ({(1,): 1}, ExactMatrix(QQ, [[]], 1, 0)),
    ], ids=["head", "tail"])
    def test_tree_rep_rejects_a_map_at_an_unlisted_vertex(self, dims, mat):
        with pytest.raises(ValueError, match=r"map at \(\)->\(1,\) joins a vertex outside dims"):
            TreeRep(3, dims, {((), (1,)): mat})

    def test_tree_rep_rejects_a_map_over_another_field(self):
        with pytest.raises(ValueError,
                           match=r"map at \(\)->\(1,\) is over GF\(5\), not the tree's QQ"):
            TreeRep(3, {(): 1, (1,): 1}, {((), (1,)): ExactMatrix.identity(GF(5), 1)})


class TestSourceRegular:
    def test_star(self):
        q = build_source_regular(3, 1)
        assert len(q.sources()) == 1 and len(q.sinks()) == 3
        sinks = q.neighbors_in(())
        assert len(sinks) == q.degree(()) == 3
        assert sorted(edge_color((), y) for y in sinks) == [1, 2, 3]
        assert all(q.neighbors_in(y) == [()] for y in sinks)

    def test_two_sources(self):
        q = build_source_regular(3, 2)
        assert len(q.sources()) == 2 and len(q.sinks()) == 5

    def test_sink_count_sweep(self):
        for r in range(2, 7):
            for n in range(1, 31):
                q = build_source_regular(r, n)
                assert len(q.sinks()) == n * (r - 1) + 1
                assert q.is_source_regular()
                assert all(q.degree(v) == len(q.neighbors_in(v)) for v in q.vertices)

    def test_full_degree_census(self):
        for r in range(2, 7):
            for n in range(1, 31):
                q = build_source_regular(r, n)
                full = [y for y in q.sinks() if q.degree(y) == r]
                assert len(full) == (n - 1) // (r - 1)

    def test_at_most_one_intermediate_sink(self):
        for r in (3, 5):
            for n in range(1, 20):
                q = build_source_regular(r, n)
                inter = [y for y in q.sinks() if 1 < q.degree(y) < r]
                assert len(inter) <= 1


    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_breadth_first_growth_matches_the_rescanning_reference(self, r):
        for n, verts in enumerate(reference_source_regular_growth(r, 400), 1):
            if n <= 120 or n in (250, 400):
                assert build_source_regular(r, n).vertices == verts, (r, n)

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_sources_come_in_length_then_address_order(self, r):
        first = sources_by_length_then_address(r, 400)
        for n in range(1, 401):
            assert build_source_regular(r, n).sources() == sorted(first[:n]), (r, n)

    def test_addresses_grow_logarithmically(self):
        # r=3: each source below the root has (r-1)^2 = 4 grandchildren
        n = 3000
        q = build_source_regular(3, n)
        k = next(k for k in itertools.count() if 4 ** k >= n)
        assert max(map(len, q.vertices)) == 2 * k + 1 == 13


class TestRootVector:
    def test_no_excess_all_ones(self):
        q = build_source_regular(3, 2)
        alpha = build_root_vector(q, 2, 5)
        assert all(v == 1 for v in alpha.values())

    def test_excess_goes_to_full_sink(self):
        q = build_source_regular(3, 4)
        alpha = build_root_vector(q, 4, 10)
        full = [y for y in q.sinks() if q.degree(y) == 3]
        assert len(full) == 1
        assert alpha[full[0]] == 2
        assert sum(alpha[y] for y in q.sinks()) == 10

    def test_upper_bound_consumes_all_budgets(self):
        for (r, a) in ((3, 4), (3, 7), (4, 7), (5, 9)):
            b = max_cover_b(r, a)
            q = build_source_regular(r, a)
            alpha = build_root_vector(q, a, b)
            assert sum(alpha[y] for y in q.sinks()) == b
            for y in q.sinks():
                assert 1 <= alpha[y] <= max(1, q.degree(y) - 1)

    def test_max_cover_b_closed_form(self):
        # independent route: exact floor of (r - 1/(r-1)) a
        for r in range(3, 7):
            for a in range(1, 51):
                expected = int(Fraction(r * (r - 1) - 1, r - 1) * a)
                assert max_cover_b(r, a) == expected

    def test_window_violation_rejected(self):
        q = build_source_regular(3, 2)
        with pytest.raises(ValueError):
            build_root_vector(q, 2, 4)   # below (r-1)a+1
        with pytest.raises(ValueError):
            build_root_vector(q, 2, 6)   # above floor(2.5 a)

    def test_two_intermediate_sinks_rejected(self):
        # sources (), (1, 2), (2, 1): the sinks (1,) and (2,) both have degree 2
        verts = {(), (1,), (2,), (3,), (1, 2), (1, 2, 1), (1, 2, 3), (2, 1), (2, 1, 2), (2, 1, 3)}
        q = TreeQuiver(3, frozenset(verts))
        assert q.is_source_regular() and q.sources() == [(), (1, 2), (2, 1)]
        with pytest.raises(ValueError, match="more than one intermediate sink"):
            build_root_vector(q, 3, 7)

    def test_sink_sum_equals_b_grid(self):
        for (r, a) in ((3, 3), (3, 5), (4, 4)):
            q = build_source_regular(r, a)
            for b in range((r - 1) * a + 1, max_cover_b(r, a) + 1):
                alpha = build_root_vector(q, a, b)
                assert sum(alpha[y] for y in q.sinks()) == b


class TestTreeBuilder:
    def test_star_all_identities(self):
        q = build_source_regular(3, 1)
        alpha = {v: 1 for v in q.vertices}
        rep = build_indecomposable_tree_rep(q, alpha)
        assert all(m == ExactMatrix.identity(QQ, 1) for m in rep.maps.values())
        down = push_down(rep)
        assert down.dim == DimVector(1, 3)
        # one edge per color: the arrow matrices are the standard basis columns
        cols = sorted(tuple(m[i, 0] for i in range(m.rows)) for m in down.mats)
        assert cols == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_q2_pipeline_example(self):
        q = build_source_regular(3, 2)
        alpha = build_root_vector(q, 2, 5)
        rep = build_indecomposable_tree_rep(q, alpha)
        down = push_down(rep)
        assert down.dim == DimVector(2, 5)
        assert is_inj(rep)[0]
        assert end_is_local(down)

    def test_window_grid_certified(self):
        # every admissible cover target yields an Inj witness with local End
        cases = []
        for r in (3, 4):
            for a in range(2, 6):
                for b in range((r - 1) * a + 1, max_cover_b(r, a) + 1):
                    if tits_form(r, (a, b)) <= 0:
                        cases.append((r, a, b))
        assert cases
        for (r, a, b) in cases:
            q = build_source_regular(r, a)
            rep = build_indecomposable_tree_rep(q, build_root_vector(q, a, b))
            assert is_inj(rep)[0], (r, a, b)
            down = push_down(rep)
            assert down.dim == DimVector(a, b)
            assert end_is_local(down), (r, a, b)

    def test_trace_records_case_path(self):
        q = build_source_regular(3, 2)
        trace = []
        build_indecomposable_tree_rep(q, build_root_vector(q, 2, 5), trace=trace)
        assert any(step.startswith("star@") for step in trace)

    def test_many_sources_need_no_recursion(self):
        q = build_source_regular(3, 300)
        alpha = build_root_vector(q, 300, 700)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            rep = build_indecomposable_tree_rep(q, alpha)
        finally:
            sys.setrecursionlimit(limit)
        assert dict(rep.dims) == alpha and is_inj(rep)[0]

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_deepest_first_peel_matches_the_recursive_reference(self, r):
        for a in (1, 2, 3, 5, 8, 13, 40, 120):
            q = build_source_regular(r, a)
            low, high = (r - 1) * a + 1, max_cover_b(r, a)
            alphas = [{v: 1 for v in q.vertices}]
            if low <= high:
                alphas += [build_root_vector(q, a, b) for b in sorted({low, (low + high) // 2, high})]
            for alpha in alphas:
                trace, want = [], []
                tree = build_indecomposable_tree_rep(q, alpha, trace=trace)
                assert tree == reference_build_indecomposable_tree_rep(q, alpha, trace=want)
                assert trace == want, (r, a)

    @pytest.mark.parametrize("r, n", [(2, 20), (3, 30), (3, 200), (4, 60)])
    def test_quiver_below_a_sink(self, r, n):
        # the sources under the sink (1,) and their neighbors: the shallowest
        # vertex is a sink, so the last source left is one of its children
        srcs = [x for x in build_source_regular(r, n).sources() if x[:1] == (1,)]
        q = TreeQuiver(r, frozenset(srcs).union(*(neighbors(x, r) for x in srcs)))
        assert () not in q.vertices and q.is_source_regular() and len(srcs) > 1
        alphas = [dict.fromkeys(q.vertices, 1),
                  {v: 1 if is_source(v) else max(1, q.degree(v) - 1) for v in q.vertices}]
        for alpha in alphas:
            trace = []
            tree = build_indecomposable_tree_rep(q, alpha, trace=trace)
            assert trace[0] == f"star@{min(srcs, key=lambda v: (len(v), v))}"
            assert dict(tree.dims) == alpha
            assert is_inj(tree)[0] and is_brick(tree), (r, n)

    @settings(max_examples=300, deadline=None)
    @given(quivers_with_alpha())
    def test_random_quivers_match_the_recursive_reference(self, q_alpha):
        q, alpha = q_alpha
        trace, want = [], []
        tree = build_indecomposable_tree_rep(q, alpha, trace=trace)
        assert tree == reference_build_indecomposable_tree_rep(q, alpha, trace=want)
        assert trace == want

    def test_hypothesis_violation_rejected(self):
        q = build_source_regular(3, 1)
        alpha = {v: 1 for v in q.vertices}
        alpha[q.sources()[0]] = 2
        with pytest.raises(ValueError):
            build_indecomposable_tree_rep(q, alpha)


class TestThinPath:
    def test_full_neighborhood(self):
        t = thin_path_rep(3, 2, 5)
        assert len(t.support_sources()) == 2 and len(t.support_sinks()) == 5
        assert push_down(t).dim == DimVector(2, 5)
        assert is_inj(t)[0]

    def test_partial_neighborhood_fails_inj(self):
        t = thin_path_rep(3, 1, 2)
        ok, witness = is_inj(t)
        assert not ok
        # the witness is an edge out of the support source into a missing sink
        assert witness is not None and witness[0] == ()

    def test_single_arrow(self):
        for r in (2, 3, 5):
            t = thin_path_rep(r, 1, 1)
            assert push_down(t).dim == DimVector(1, 1)

    def test_color_one_edges_always_injective(self):
        # the injectivity that survives the shift argument
        for (u, v) in ((1, 2), (2, 3), (3, 5)):
            t = thin_path_rep(3, u, v)
            for x in t.support_sources():
                y = neighbor_via(x, 1)
                assert (x, y) in t.maps and t.maps[(x, y)].rank() == 1

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_zigzag_is_centred_on_the_root(self, r):
        # the sources are the first u of the breadth-first walk on colors 1
        # and 2, so no address is longer than u + 1 (a one-sided path's is 2u - 1)
        for u in range(1, 61):
            t = thin_path_rep(r, u, u + 1)
            assert t.support_sources() == sorted(_first_sources(2, u)), (r, u)
            assert max(map(len, t.dims)) <= u + 1, (r, u)
            if r == 2:
                assert t.dims.keys() == build_source_regular(2, u).vertices, u

    def test_window_validation(self):
        with pytest.raises(ValueError):
            thin_path_rep(3, 2, 6)
        with pytest.raises(ValueError):
            thin_path_rep(3, 2, 1)


class TestPushDown:
    def test_single_sink_is_simple(self):
        t = TreeRep(3, {(1,): 1}, {})
        down = push_down(t)
        assert down.dim == DimVector(0, 1)
        assert all(m.cols == 0 and m.rows == 1 for m in down.mats)

    def test_dimension_formula(self):
        for (r, a, b) in ((3, 2, 5), (3, 3, 7), (4, 2, 7)):
            q = build_source_regular(r, a)
            rep = build_indecomposable_tree_rep(q, build_root_vector(q, a, b))
            down = push_down(rep)
            assert down.dim.a == sum(rep.dims[x] for x in rep.support_sources())
            assert down.dim.b == sum(rep.dims[y] for y in rep.support_sinks())

    def test_unused_colors_allocate_no_rows(self):
        # only the colors on some edge get rows; the other arrows share one zero
        tree = TreeRep.from_json({"r": 200000, "vertices": [{"addr": [], "dim": 1}], "edges": []})
        tracemalloc.start()
        try:
            down = push_down(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert down.dim == DimVector(1, 0) and len(down.mats) == 200000
        assert all(m.rows == 0 and m.cols == 1 for m in down.mats)


class TestOrientation:
    """A tree edge from a sink to a source is named by every tree operation that needs
    the bipartite orientation."""

    REVERSED = TreeRep(3, {(): 1, (1,): 1, (2,): 1},
                       {((), (2,)): ExactMatrix(QQ, [[1]]), ((1,), ()): ExactMatrix(QQ, [[1]])})

    def test_first_reversed_edge(self):
        assert self.REVERSED.reversed_edge() == ((1,), ())
        assert thin_path_rep(3, 2, 5).reversed_edge() is None

    @pytest.mark.parametrize("operation", [push_down, is_inj, tau_inverse_tree])
    def test_operations_name_the_edge(self, operation):
        with pytest.raises(ValueError, match=r"bipartite orientation: edge \[1\] -> \[\] runs "
                                             r"from a sink to a source"):
            operation(self.REVERSED)


class TestInjCertificate:
    def test_source_too_big_fails(self):
        # a source of dimension 2 mapping into a 1-dimensional sink
        t = TreeRep(3, {(): 2, (1,): 1, (2,): 2, (3,): 2},
                    {((), (1,)): ExactMatrix(QQ, [[1, 0]]),
                     ((), (2,)): ExactMatrix.identity(QQ, 2),
                     ((), (3,)): ExactMatrix.identity(QQ, 2)})
        ok, witness = is_inj(t)
        assert not ok and witness == ((), (1,), 1)

    def test_cross_module_sampling_agreement(self):
        q = build_source_regular(3, 3)
        rep = build_indecomposable_tree_rep(q, build_root_vector(q, 3, 7))
        assert is_inj(rep)[0]
        assert ekp_sample_check(push_down(rep), 200, 23)


class TestGradedBound:
    def test_star_equality(self):
        q = build_source_regular(4, 1)
        rep = build_indecomposable_tree_rep(q, {v: 1 for v in q.vertices})
        ok, slack, detail = source_regular_bound_check(rep)
        assert ok and slack == 0 and detail["inj"]

    def test_q2_equality(self):
        q = build_source_regular(3, 2)
        rep = build_indecomposable_tree_rep(q, build_root_vector(q, 2, 5))
        ok, slack, _ = source_regular_bound_check(rep)
        assert ok and slack == 0

    def test_positive_slack_with_budget(self):
        q = build_source_regular(3, 4)
        rep = build_indecomposable_tree_rep(q, build_root_vector(q, 4, 10))
        ok, slack, detail = source_regular_bound_check(rep)
        assert ok and slack == 10 - 8 - 1 == 1

    def test_precondition_reported_not_raised(self):
        t = thin_path_rep(3, 1, 2)
        ok, _, detail = source_regular_bound_check(t)
        assert not detail["inj"] and "inj_witness" in detail


class TestTreeSerialization:
    def test_round_trip(self):
        q = build_source_regular(3, 2)
        rep = build_indecomposable_tree_rep(q, build_root_vector(q, 2, 5))
        blob = json.loads(rep.to_json_str())
        back = TreeRep.from_json(blob)
        assert back.dims == rep.dims
        assert back.maps == rep.maps
        assert push_down(back) == push_down(rep)

    def test_prime_field_round_trip(self):
        q = build_source_regular(3, 2)
        rep = build_indecomposable_tree_rep(q, build_root_vector(q, 2, 5), field=GF(5))
        blob = json.loads(rep.to_json_str())
        assert blob["field"] == {"type": "GF", "p": 5}
        back = TreeRep.from_json(blob)
        assert back.field == GF(5)
        assert back == rep
        assert push_down(back) == push_down(rep)

    def test_rational_tree_json_has_no_field(self):
        # Q stays the implicit default, so rational witness files are unchanged
        t = thin_path_rep(3, 2, 5)
        assert "field" not in t.to_json()
        assert TreeRep.from_json(t.to_json()).field == QQ

    def test_hashable_and_frozen(self):
        t = thin_path_rep(3, 2, 5)
        back = TreeRep.from_json(json.loads(t.to_json_str()))
        assert hash(back) == hash(t)
        assert len({t, back}) == 1
        with pytest.raises(TypeError):
            t.dims[(1,)] = 7

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="'vertices'"):
            TreeRep.from_json({"r": 3, "edges": []})
        with pytest.raises(ValueError, match="tree edge is missing field.*'mat'"):
            TreeRep.from_json({"r": 3, "vertices": [], "edges": [{"src": [], "dst": [1]}]})

    def test_schema_fields(self):
        t = thin_path_rep(3, 1, 1)
        d = t.to_json()
        assert d["r"] == 3
        assert {"addr", "dim"} <= set(d["vertices"][0])
        assert {"src", "dst", "color", "mat"} <= set(d["edges"][0])
