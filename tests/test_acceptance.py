"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every numeric assertion is exact (integer or rational equality); sampling
counts are pinned here and never loosened.  Run with ``pytest -s`` to see
the per-criterion lines.
"""

from fractions import Fraction

from gf2_oracle import gf2_indecomposable, gf2_reps, has_constant_type
from reference_impls import explicit_p2, max_cover_b

from kronjord.bgp import tau_inverse_tree
from kronjord.cover import build_source_regular, is_inj, push_down, source_regular_bound_check
from kronjord.echelon import ekp_echelon_certificate
from kronjord.exactmat import ExactMatrix, QQ
from kronjord.kronecker import (
    DimVector,
    JordanType,
    coxeter_apply,
    direct_sum,
    dual,
    euler_form,
    is_constant_jordan_type,
    pencil,
    probe_alphas,
    simple_rep,
    tits_form,
    to_module_operators,
    xi,
)
from kronjord.pipeline import classify
from kronjord.verify import (
    ekp_sample_check,
    eip_sample_check,
    end_is_local,
    ext_dim,
    hom_space,
    restriction_check,
)

from conftest import derived_seed


def report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_realization_sweep(witness_sweep):
    """Realize every admissible (c,d) for r in {2,3,4} up to dimension 14."""
    assert witness_sweep, "sweep is empty"
    for (r, c, d, w) in witness_sweep:
        seed = derived_seed(r, c, d)
        assert w.rep.dim == xi(c, d) == DimVector(d, d + c), (r, c, d)
        route = w.construction_trace[0].removeprefix("route:")
        kind = w.ekp_certificate["kind"]
        if route == "echelon":
            assert kind == "echelon" and ekp_echelon_certificate(w.rep), (r, c, d)
        else:
            assert kind == "inj-cover" and w.tree is not None, (r, c, d)
            assert is_inj(w.tree)[0] and push_down(w.tree) == w.rep, (r, c, d)
        assert ekp_sample_check(w.rep, 200, seed), (r, c, d)
        constant, jtype, _ = is_constant_jordan_type(w.rep, 100, seed + 1)
        assert constant and jtype == JordanType(c, d), (r, c, d)
        assert end_is_local(w.rep), (r, c, d)
    report(1, True, f"{len(witness_sweep)} witnesses realized and certified "
                    f"(r in {{2,3,4}}, d+c <= 14)")


def test_criterion_02_classification_boundary():
    """classify agrees with the integer-arithmetic membership test on [0,10]^2."""
    r = 3
    mismatches = []
    for c in range(0, 11):
        for d in range(0, 11):
            q = d * d + (d + c) * (d + c) - r * d * (d + c)
            expected = (c, d) == (1, 0) or (c >= 1 and d >= 1 and q <= 1 and c >= r - 1)
            if classify(r, c, d).accepted != expected:
                mismatches.append((c, d))
    ok = not mismatches
    ok = ok and not classify(3, 1, 1).accepted
    ok = ok and not classify(2, 0, 2).accepted
    report(2, ok, "r=3 grid [0,10]^2 matches the definition; "
                  "(1,1) at r=3 and (0,2) at r=2 rejected")


def test_criterion_03_closed_forms():
    """Sink counts, the full-degree census, the window maximum, the shift example."""
    ok = True
    for r in range(2, 7):
        for n in range(1, 31):
            q = build_source_regular(r, n)
            ok = ok and len(q.sinks()) == n * (r - 1) + 1
            full = sum(1 for y in q.sinks() if q.degree(y) == r)
            ok = ok and full == (n - 1) // (r - 1)
    for r in range(3, 7):
        for a in range(1, 51):
            floor_value = int(Fraction(r * (r - 1) - 1, r - 1) * a)
            ok = ok and max_cover_b(r, a) == floor_value
    ok = ok and coxeter_apply(3, (2, 5), 1) == (1, 1)
    ok = ok and all(tits_form(r, (2, 2 * r)) == 4 for r in range(2, 7))
    report(3, ok, "sink count n(r-1)+1, census floor((n-1)/(r-1)), window max, "
                  "Phi(2,5)=(1,1), q(2,2r)=4")


def test_criterion_04_euler_identity():
    """dim Hom - dim Ext equals the bilinear form on a zoo of pairs, exactly."""
    reps = [
        simple_rep(3, (1, 0)),
        simple_rep(3, (0, 1)),
        explicit_p2(3),
        dual(explicit_p2(3)),
        direct_sum(simple_rep(3, (0, 1)), explicit_p2(3)),
    ]
    from kronjord.echelon import build_echelon_rep, select_phi
    reps.append(build_echelon_rep(select_phi(3, 2, 4)))
    from kronjord.cover import build_indecomposable_tree_rep, build_root_vector
    q = build_source_regular(3, 2)
    reps.append(push_down(build_indecomposable_tree_rep(q, build_root_vector(q, 2, 5))))
    reps.append(dual(reps[-1]))
    pairs = 0
    ok = True
    for m in reps:
        for n in reps:
            ok = ok and hom_space(m, n).dim - ext_dim(m, n) == euler_form(3, m.dim, n.dim)
            pairs += 1
    ok = ok and pairs >= 20
    report(4, ok, f"Euler identity exact on {pairs} representation pairs")


def test_criterion_05_coxeter_commutation(witness_sweep):
    """Push-down dimension vectors of translated covers follow the inverse Coxeter matrix."""
    trees = [(r, w.tree) for (r, _, _, w) in witness_sweep if w.tree is not None]
    checked = 0
    ok = True
    for r, tree in trees:
        before = push_down(tree).dim
        after = push_down(tau_inverse_tree(tree)).dim
        ok = ok and tuple(after) == coxeter_apply(r, before, -1)
        checked += 1
    ok = ok and checked >= 10
    report(5, ok, f"dim pi(tau^-1 M) = Phi^-1 dim pi(M) exact on {checked} cover witnesses")


def test_criterion_06_duality(witness_sweep):
    """Duals are equal-images witnesses of the same type; double dual is bit-exact."""
    ok = True
    for (r, c, d, w) in witness_sweep:
        seed = derived_seed(r, c, d) + 2
        dm = dual(w.rep)
        ok = ok and eip_sample_check(dm, 200, seed)
        constant, jtype, _ = is_constant_jordan_type(dm, 100, seed)
        ok = ok and constant and jtype == JordanType(c, d)
        ok = ok and dual(dm).to_json_str() == w.rep.to_json_str()
        if not ok:
            break
    report(6, ok, f"duality checks exact on all {len(witness_sweep)} witnesses")


def test_criterion_07_restriction_theorem(witness_sweep):
    """Indecomposable witnesses obey q(d,d+c) <= 1; the split counterexample shows q = 4."""
    ok = True
    for (r, c, d, w) in witness_sweep:
        passed, detail = restriction_check(w.rep, 200, derived_seed(r, c, d) + 3)
        ok = ok and passed and detail["q"] <= 1
        if not ok:
            break
    decomposable = direct_sum(explicit_p2(3), explicit_p2(3))
    passed, detail = restriction_check(decomposable, 200, 99)
    ok = ok and not passed and detail["q"] == 4
    report(7, ok, "restriction inequality on all witnesses; P2+P2 yields q=4>1")


def test_criterion_08_graded_bound(witness_sweep):
    """Every Inj cover witness satisfies b >= (r-1)a + max source dimension."""
    checked = 0
    ok = True
    for (r, c, d, w) in witness_sweep:
        if w.tree is None:
            continue
        bound_ok, slack, detail = source_regular_bound_check(w.tree)
        ok = ok and bound_ok and slack >= 0 and detail["inj"]
        checked += 1
    ok = ok and checked > 0
    report(8, ok, f"b >= (r-1)a + max source dim, exact on {checked} cover witnesses")


def test_criterion_09_module_operators(witness_sweep):
    """Operator matrices square to zero pairwise and track pencil ranks."""
    ok = True
    for (r, c, d, w) in witness_sweep:
        ops = to_module_operators(w.rep)
        for x in ops:
            for y in ops:
                ok = ok and (x @ y).is_zero()
        n = w.rep.total_dim()
        for alpha in probe_alphas(QQ, r, 50, derived_seed(r, c, d) + 4):
            combo = ExactMatrix.zeros(QQ, n, n)
            for coeff, op in zip(alpha, ops):
                if coeff:
                    combo = combo + op.scale(coeff)
            ok = ok and combo.rank() == pencil(w.rep, alpha).rank()
        if not ok:
            break
    report(9, ok, f"r^2 vanishing products and 50-sample rank agreement "
                  f"on all {len(witness_sweep)} witnesses")


def test_criterion_10_negative_space_oracle():
    """Exhaustive GF(2) searches find no witness for three rejected types at r=3."""
    r = 3
    ok = True
    for (c, d) in ((1, 1), (0, 1), (0, 2)):
        assert not classify(r, c, d).accepted
        a, b = d, d + c
        hits = [rep for rep in gf2_reps(r, a, b)
                if has_constant_type(rep, c, d) and gf2_indecomposable(rep)]
        ok = ok and hits == []
    report(10, ok, "no GF(2) indecomposable of constant type for rejected "
                   "(1,1), (0,1), (0,2) at r=3")
