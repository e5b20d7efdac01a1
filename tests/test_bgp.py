"""Reflection functors, the inverse translate, the Phi descent, preprojectives."""

import pytest
from reference_impls import (
    coxeter_shift_plan,
    explicit_p2,
    kron_tau_inverse,
    preprojective_dim_vectors,
    reference_build_preprojective,
    reference_preprojective_walk,
    reference_tau_inverse_tree,
    weyl_reflect,
)

from kronjord import bgp
from kronjord.bgp import (
    build_preprojective,
    descend,
    reflect_functor_source,
    tau_inverse_tree,
)
from kronjord.cover import (
    TreeRep,
    neighbor_via,
    build_indecomposable_tree_rep,
    build_root_vector,
    build_source_regular,
    is_inj,
    push_down,
    thin_path_rep,
)
from kronjord.exactmat import QQ, ExactMatrix
from kronjord.kronecker import DimVector, coxeter_apply, simple_rep, tits_form
from kronjord.pipeline import classify
from kronjord.verify import ekp_sample_check, hom_space, is_brick


class TestWeylReflect:
    def test_star_all_ones_reflects_to_simple(self):
        q = build_source_regular(3, 1)
        v = {w: 1 for w in q.vertices}
        for y in q.sinks():
            v = weyl_reflect(q, v, y)
        expected = {w: 0 for w in q.sinks()}
        expected[q.sources()[0]] = 1
        assert v == expected

    def test_involution(self):
        q = build_source_regular(3, 2)
        v = {w: 1 + len(w) for w in q.vertices}
        y = q.sinks()[0]
        assert weyl_reflect(q, weyl_reflect(q, v, y), y) == v

    def test_simple_root_negation(self):
        q = build_source_regular(3, 1)
        y = q.sinks()[0]
        e_y = {w: 1 if w == y else 0 for w in q.vertices}
        assert weyl_reflect(q, e_y, y)[y] == -1

    def test_unknown_vertex(self):
        q = build_source_regular(3, 1)
        with pytest.raises(ValueError):
            weyl_reflect(q, {}, (1, 2, 1, 2))


class TestReflectFunctor:
    def test_zero_source_gets_neighbor_sum(self):
        # dim 0 at the root, neighbor sinks of dims 1 and 2
        t = TreeRep(3, {(1,): 1, (2,): 2}, {})
        out = reflect_functor_source(t, ())
        assert out.dims[()] == 3
        assert ((1,), ()) in out.maps and ((2,), ()) in out.maps

    def test_isomorphism_collapses(self):
        t = TreeRep(3, {(): 1, (1,): 1}, {((), (1,)): ExactMatrix.identity(QQ, 1)})
        out = reflect_functor_source(t, ())
        assert () not in out.dims

    def test_matches_weyl_reflection_when_injective(self):
        q = build_source_regular(3, 2)
        rep = build_indecomposable_tree_rep(q, build_root_vector(q, 2, 5))
        for x in rep.support_sources():
            out = reflect_functor_source(rep, x)
            reflected = weyl_reflect(q, rep.dims, x)
            assert out.dims.get(x, 0) == reflected[x]

    def test_rejects_non_source(self):
        t = TreeRep(3, {(): 1, (1,): 1}, {((), (1,)): ExactMatrix.identity(QQ, 1)})
        with pytest.raises(ValueError, match="is not a source"):
            reflect_functor_source(t, (1,))
        with pytest.raises(ValueError, match="is not a source"):
            reflect_functor_source(t, (2, 1), (1,))

    def test_rejects_adjacent_vertices(self):
        t = TreeRep(3, {(1,): 1}, {})
        with pytest.raises(ValueError, match="are adjacent"):
            reflect_functor_source(t, (), (2,))
        with pytest.raises(ValueError, match="are adjacent"):
            reflect_functor_source(t, (2, 1), (2,), (3,))

    @pytest.mark.parametrize("r, a, b", [(3, 2, 5), (3, 4, 10), (4, 3, 10)])
    def test_two_sources_at_once_equal_two_single_reflections(self, r, a, b):
        q = build_source_regular(r, a)
        rep = build_indecomposable_tree_rep(q, build_root_vector(q, a, b))
        xs = rep.support_sources()
        for x in xs:
            for y in xs:
                if x < y:
                    once = reflect_functor_source(rep, x, y)
                    assert once == reflect_functor_source(reflect_functor_source(rep, x), y)
                    assert once == reflect_functor_source(reflect_functor_source(rep, y), x)
        # a zero-dimensional source beside the support grows it in the same pass
        zero = next(z for z in (neighbor_via(y, c) for y in rep.support_sinks()
                                for c in range(1, r + 1)) if z not in rep.dims)
        assert (reflect_functor_source(rep, xs[0], zero)
                == reflect_functor_source(reflect_functor_source(rep, zero), xs[0]))


class TestTauInverseTree:
    def test_projective_chain_lift(self):
        # single sink vertex pushes down to (0,1); one translate reaches (3,8)
        t = TreeRep(3, {(1,): 1}, {})
        out = tau_inverse_tree(t)
        assert push_down(out).dim == DimVector(3, 8)

    def test_thin_example(self):
        t = thin_path_rep(3, 1, 2)
        out = tau_inverse_tree(t)
        rep = push_down(out)
        assert rep.dim == DimVector(5, 13)
        assert is_inj(out)[0]

    def test_dimension_contract(self):
        for (r, a, b) in ((3, 2, 5), (3, 3, 7), (4, 2, 7)):
            q = build_source_regular(r, a)
            tree = build_indecomposable_tree_rep(q, build_root_vector(q, a, b))
            out = tau_inverse_tree(tree)
            assert tuple(push_down(out).dim) == coxeter_apply(r, (a, b), -1)

    def test_inj_preserved(self):
        q = build_source_regular(3, 2)
        tree = build_indecomposable_tree_rep(q, build_root_vector(q, 2, 5))
        assert is_inj(tree)[0]
        out = tau_inverse_tree(tree)
        assert is_inj(out)[0]

    def test_end_preserved(self):
        q = build_source_regular(3, 2)
        tree = build_indecomposable_tree_rep(q, build_root_vector(q, 2, 5))
        before = hom_space(push_down(tree), push_down(tree)).dim
        after_rep = push_down(tau_inverse_tree(tree))
        assert hom_space(after_rep, after_rep).dim == before

    def test_injective_lift_vanishes(self):
        # the simple at a source is the lift of the injective (1,0)
        t = TreeRep(3, {(): 1}, {})
        with pytest.raises(ValueError):
            tau_inverse_tree(t)

    def test_one_reflection_call_per_sweep(self, monkeypatch):
        calls = []
        reflect = bgp.reflect_functor_source
        monkeypatch.setattr(bgp, "reflect_functor_source",
                            lambda m, *xs: calls.append(len(xs)) or reflect(m, *xs))
        q = build_source_regular(3, 4)
        tau_inverse_tree(build_indecomposable_tree_rep(q, build_root_vector(q, 4, 10)))
        assert len(calls) == 2 and min(calls) > 1

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_sweeps_match_the_per_vertex_reference(self, r):
        # every chain lift and every tree on a shift witness's path with a+b <= 60
        trees = [build_preprojective(r, a, b) for (a, b) in preprojective_dim_vectors(r, 60)
                 if a + b <= 60]
        shifts = 0
        for a in range(1, 60):
            for b in range(a + 1, 61 - a):
                if classify(r, b - a, a).route != "shift":
                    continue
                shifts += 1
                plan = coxeter_shift_plan(r, a, b)
                u, v = plan.intermediate
                if plan.window_case == "cover-case":
                    q = build_source_regular(r, u)
                    tree = build_indecomposable_tree_rep(q, build_root_vector(q, u, v))
                else:
                    tree = thin_path_rep(r, u, v)
                for _ in range(plan.l - 1):
                    trees.append(tree)
                    tree = tau_inverse_tree(tree)
                trees.append(tree)
        assert shifts > 0 or r == 2
        for tree in trees:
            assert tau_inverse_tree(tree) == reference_tau_inverse_tree(tree), tree.dims

    def test_commutes_with_quiver_level_translate(self):
        # the tree sweep and the Kronecker-level sweep produce isomorphic
        # push-downs, certified by an invertible intertwiner
        import itertools

        def isomorphic(x, y):
            if x.dim != y.dim:
                return False
            hs = hom_space(x, y)
            for coeffs in itertools.product((-1, 0, 1), repeat=hs.dim):
                if not any(coeffs):
                    continue
                f1 = f2 = None
                for c, (g1, g2) in zip(coeffs, hs.basis):
                    s1, s2 = g1.scale(c), g2.scale(c)
                    f1 = s1 if f1 is None else f1 + s1
                    f2 = s2 if f2 is None else f2 + s2
                if f1.rank() == x.dim.a and f2.rank() == x.dim.b:
                    return True
            return False

        lift = TreeRep(3, {(1,): 1}, {})
        assert isomorphic(push_down(tau_inverse_tree(lift)),
                          kron_tau_inverse(simple_rep(3, (0, 1))))
        thin = thin_path_rep(3, 1, 2)
        assert isomorphic(push_down(tau_inverse_tree(thin)),
                          kron_tau_inverse(push_down(thin)))


class TestShiftPlan:
    def test_worked_example(self):
        plan = coxeter_shift_plan(3, 5, 13)
        assert plan.l == 1
        assert plan.intermediate == DimVector(1, 2)
        assert plan.window_case == "thin-case"

    def test_inside_window_rejected(self):
        with pytest.raises(ValueError):
            coxeter_shift_plan(3, 2, 5)   # (r-1)b = (r^2-r-1)a: cover window

    def test_real_root_rejected(self):
        with pytest.raises(ValueError):
            coxeter_shift_plan(3, 3, 8)

    def test_form_invariance(self):
        plan = coxeter_shift_plan(3, 5, 13)
        assert tits_form(3, plan.intermediate) == tits_form(3, (5, 13))

    def test_termination_bound_on_region_sample(self):
        # large vectors in the precondition region still plan within the bound
        found = 0
        for a in range(1, 120):
            for b in range(a + 1, 3 * a + 1):
                if tits_form(3, (a, b)) <= 0 and 2 * b > 5 * a:
                    plan = coxeter_shift_plan(3, a, b)
                    assert 1 <= plan.l <= 64
                    u, v = plan.intermediate
                    assert u < v and 2 * v <= 5 * u
                    found += 1
        assert found > 20
        big = coxeter_shift_plan(3, 377610, 987000)
        assert big.l <= 64

    def test_boundary_resolves_to_thin(self):
        # any plan landing exactly on v = (r-1)u + 1 must be tagged thin
        for a in range(1, 200):
            for b in range(a + 1, 3 * a + 1):
                if tits_form(3, (a, b)) <= 0 and 2 * b > 5 * a:
                    plan = coxeter_shift_plan(3, a, b)
                    u, v = plan.intermediate
                    if v == 2 * u + 1:
                        assert plan.window_case == "thin-case"

    def test_double_shift_instance(self):
        # (34,89) sits two translates above the thin window
        plan = coxeter_shift_plan(3, 34, 89)
        assert plan.l == 2 and plan.intermediate == DimVector(1, 2)
        tree = thin_path_rep(3, 1, 2)
        for _ in range(plan.l):
            tree = tau_inverse_tree(tree)
        assert push_down(tree).dim == DimVector(34, 89)
        assert is_inj(tree)[0]


class TestDescend:
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_matches_the_reference_planner_on_shift_vectors(self, r):
        found = 0
        for a in range(1, 200):
            for b in range(a + 1, 401 - a):
                if tits_form(r, (a, b)) <= 0 and (r - 1) * b > (r * r - r - 1) * a:
                    plan = coxeter_shift_plan(r, a, b)
                    assert descend(r, a, b) == (plan.l, plan.intermediate), (a, b)
                    found += 1
        assert found > 50

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_matches_the_reference_walk_on_the_chain(self, r):
        chain = [v for v in preprojective_dim_vectors(r, 200) if sum(v) <= 200]
        assert len(chain) > 3
        for a, b in chain:
            assert descend(r, a, b) == reference_preprojective_walk(r, a, b), (a, b)

    def test_no_step_bound(self):
        # 70 steps above (2, 5): the reference planner gives up after 64
        a, b = coxeter_apply(3, (2, 5), -70)
        assert descend(3, a, b) == (70, DimVector(2, 5))
        with pytest.raises(AssertionError, match="safety bound"):
            coxeter_shift_plan(3, a, b)

    @pytest.mark.parametrize("r, a, b", [
        (3, 1, 5),     # q = 11
        (3, 0, 2),     # q = 4
        (3, 5, 2),     # a > b
        (3, 8, 3),     # preinjective
        (3, 2, 2),     # a = b
        (2, 1, 1),     # a = b, q = 0
        (3, -1, 0),    # q = 1, a < 0
    ])
    def test_rejects_q_above_1_and_a_not_below_b(self, r, a, b):
        with pytest.raises(ValueError, match="needs q <= 1 and 0 <= a < b"):
            descend(r, a, b)


class TestPreprojectives:
    def test_p2_explicit(self):
        for r in (2, 3, 4, 5):
            tree = build_preprojective(r, 1, r)
            assert tree == thin_path_rep(r, 1, r)
            assert push_down(tree) == explicit_p2(r)

    def test_simple_is_the_sink_lift(self):
        for r in (2, 3, 4):
            tree = build_preprojective(r, 0, 1)
            assert tree == TreeRep(r, {(1,): 1})
            assert push_down(tree) == simple_rep(r, (0, 1))

    def test_p3_r3(self):
        tree = build_preprojective(3, 3, 8)
        assert isinstance(tree, TreeRep) and is_inj(tree)[0]
        rep = push_down(tree)
        assert rep.dim == DimVector(3, 8)
        assert is_brick(rep)

    def test_r2_chain(self):
        rep = push_down(build_preprojective(2, 3, 4))
        assert rep.dim == DimVector(3, 4)
        assert is_brick(rep)

    def test_chain_sweep_bricks_and_roots(self):
        for r in (2, 3):
            for (a, b) in [(0, 1), (1, r)] + (
                    [(3, 8), (8, 21)] if r == 3 else [(2, 3), (3, 4), (4, 5)]):
                rep = push_down(build_preprojective(r, a, b))
                assert tits_form(r, rep.dim) == 1
                assert is_brick(rep)
                assert ekp_sample_check(rep, 60, 5)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_lifts_are_inj_bricks_isomorphic_to_the_kronecker_translate(self, r):
        # the reference chain: the Kronecker-level translate of the simple
        # (even index) or of P2 (odd index); both are bricks, so the lift's
        # push-down is isomorphic to it iff the one Hom basis map is invertible
        chain = [v for v in preprojective_dim_vectors(r, 60) if sum(v) <= 60]
        refs = [simple_rep(r, (0, 1)), explicit_p2(r)]
        while len(refs) < len(chain):
            refs.append(kron_tau_inverse(refs[-2]))
        for (a, b), ref in zip(chain, refs):
            assert ref.dim == DimVector(a, b)
            tree = build_preprojective(r, a, b)
            assert is_inj(tree)[0], (r, a, b)
            rep = push_down(tree)
            assert rep.dim == DimVector(a, b) and is_brick(rep), (r, a, b)
            hom = hom_space(rep, ref)
            assert hom.dim == 1, (r, a, b)
            f1, f2 = hom.basis[0]
            assert f1.rank() == a and f2.rank() == b, (r, a, b)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_walk_matches_the_chain_index_sweep(self, r):
        # for r >= 3 the walk stops at (0,1) or (1,r) after idx // 2 steps
        for a, b in preprojective_dim_vectors(r, 200):
            if a + b <= 200:
                assert build_preprojective(r, a, b) == reference_build_preprojective(r, a, b), (a, b)

    def test_r2_lifts_are_thin_paths(self):
        for n in range(1, 201):
            assert build_preprojective(2, n, n + 1) == thin_path_rep(2, n, n + 1), n

    def test_r2_thin_paths_push_down_to_the_sweep_lifts(self):
        # both push-downs are bricks, so they are isomorphic iff the one Hom
        # basis map is invertible
        for n in range(31):
            rep = push_down(build_preprojective(2, n, n + 1))
            ref = push_down(reference_build_preprojective(2, n, n + 1))
            hom = hom_space(rep, ref)
            assert hom.dim == 1, n
            f1, f2 = hom.basis[0]
            assert f1.rank() == n and f2.rank() == n + 1, n

    def test_negative_roots_rejected(self):
        # q = 1 and a < b, but not a dimension vector
        for r, a, b in ((3, -1, 0), (3, -3, -1), (2, -2, -1)):
            assert tits_form(r, (a, b)) == 1
            with pytest.raises(ValueError, match="not a preprojective root"):
                build_preprojective(r, a, b)

    def test_off_chain_rejected(self):
        with pytest.raises(ValueError):
            build_preprojective(3, 2, 5)    # imaginary root
        with pytest.raises(ValueError):
            build_preprojective(3, 8, 3)    # preinjective side

    def test_kron_tau_inverse_dims(self):
        rep = explicit_p2(3)
        out = kron_tau_inverse(rep)
        assert tuple(out.dim) == coxeter_apply(3, (1, 3), -1) == (8, 21)
