"""Dispatch, realization, round-trip validation, and negative-space oracles."""

import json
import re
import time

import pytest
from reference_impls import (
    reference_build_indecomposable_tree_rep,
    reference_source_regular_growth,
    reference_tau_inverse_tree,
)
from gf2_oracle import (
    gf2_cjt_survivors,
    gf2_indecomposable,
    gf2_reps,
    has_constant_type,
    rep_from_bits,
)

from conftest import derived_seed

import kronjord
from kronjord.cover import TreeQuiver, TreeRep, is_inj, push_down
from kronjord.kronecker import DimVector, JordanType, dual, is_constant_jordan_type, xi
from kronjord import bgp, kronecker, pipeline, verify
from kronjord.pipeline import (
    ROUTE_CERTIFICATE,
    CertifiedWitness,
    JordanTypeRejected,
    classify,
    realize,
    validate_witness,
)
from kronjord.verify import eip_sample_check, restriction_check

# one witness of each route
ROUTE_WITNESSES = [(3, 1, 0), (3, 2, 1), (3, 2, 2), (3, 3, 2), (3, 8, 5)]


def test_package_exports_resolve_once_each():
    assert len(kronjord.__all__) == len(set(kronjord.__all__))
    assert [name for name in kronjord.__all__ if not hasattr(kronjord, name)] == []
    namespace = {}
    exec("from kronjord import *", namespace)
    assert set(kronjord.__all__) <= namespace.keys()


class TestClassify:
    def test_cover_route(self):
        cls = classify(3, 3, 2)
        assert cls.accepted and cls.route == "cover" and cls.dim == DimVector(2, 5)

    def test_echelon_route(self):
        cls = classify(3, 2, 2)
        assert cls.accepted and cls.route == "echelon" and cls.dim == DimVector(2, 4)

    def test_shift_route(self):
        cls = classify(3, 8, 5)
        assert cls.accepted and cls.route == "shift" and cls.dim == DimVector(5, 13)

    def test_preprojective_route(self):
        for r in (2, 3, 4):
            cls = classify(r, r - 1, 1)
            assert cls.accepted and cls.route == "preprojective"

    def test_simple_route(self):
        cls = classify(5, 1, 0)
        assert cls.accepted and cls.route == "simple" and cls.dim == DimVector(0, 1)

    def test_rejections(self):
        assert not classify(2, 0, 2).accepted
        cls = classify(3, 1, 1)
        assert not cls.accepted and cls.reason == "c >= r-1"

    def test_boundary_split(self):
        # b = (r-1)a goes to echelon, b = (r-1)a + 1 to cover
        assert classify(3, 2, 2).route == "echelon"     # (2,4)
        assert classify(3, 3, 2).route == "cover"       # (2,5)


class TestRealize:
    @pytest.mark.parametrize("r,c,d,route,kind", [
        (3, 3, 2, "cover", "inj-cover"),
        (3, 2, 2, "echelon", "echelon"),
        (3, 8, 5, "shift", "inj-cover"),
        (2, 1, 1, "preprojective", "inj-cover"),
        (4, 3, 1, "preprojective", "inj-cover"),
        (3, 1, 0, "simple", "inj-cover"),
    ])
    def test_routes(self, r, c, d, route, kind):
        w = realize(r, c, d)
        assert w.construction_trace[0] == f"route:{route}"
        assert (w.ekp_certificate["kind"], w.indec_evidence) == ROUTE_CERTIFICATE[route]
        assert w.ekp_certificate["kind"] == kind
        assert w.rep.dim == xi(c, d)
        assert w.jordan == JordanType(c, d)
        if kind == "inj-cover":
            assert w.tree is not None and is_inj(w.tree)[0] and push_down(w.tree) == w.rep
            assert w.indec_evidence == "local-endo"
        else:
            assert w.tree is None and w.indec_evidence == "brick"

    def test_rejection_carries_clause(self):
        with pytest.raises(JordanTypeRejected) as err:
            realize(3, 1, 1)
        assert err.value.clause == "c >= r-1"

    def test_round_trip_validation(self):
        for (r, c, d) in ((3, 3, 2), (3, 2, 2), (3, 8, 5), (2, 1, 1)):
            w = realize(r, c, d)
            blob = json.loads(w.to_json_str())
            ok, results = validate_witness(blob)
            assert ok, results

    def test_dim_vector_matches_xi(self):
        for (r, c, d) in ((3, 4, 3), (4, 3, 2), (2, 1, 5)):
            w = realize(r, c, d)
            assert w.rep.dim == xi(c, d)

    def test_realize_samples_nothing(self, monkeypatch):
        calls = []
        sampled = ("is_constant_jordan_type", "restriction_check", "eip_sample_check",
                   "_sampled_ranks")
        patched = set()
        for module in (kronecker, verify, pipeline):
            for name in sampled:
                if hasattr(module, name):
                    fn = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *a, _n=name, _f=fn, **k:
                                        calls.append(_n) or _f(*a, **k))
                    patched.add(name)
        # a name deleted or renamed would otherwise silently stop being watched
        assert patched == set(sampled)
        routes = set()
        for (r, c, d) in ROUTE_WITNESSES:
            routes.add(classify(r, c, d).route)
            for mode in ("ekp", "eip"):
                w = realize(r, c, d, mode=mode)
                assert w.checks["jordan"] == {"c": c, "d": d,
                                              "from": w.ekp_certificate["kind"]}
                assert ("eip" in w.checks) == (mode == "eip")
        assert routes == set(ROUTE_CERTIFICATE)
        assert calls == []

    def test_exact_records_match_sampling(self, witness_sweep):
        for r, c, d, w in witness_sweep:
            s = derived_seed(r, c, d) + 5
            constant, jtype, _ = is_constant_jordan_type(w.rep, 100, s)
            assert constant and w.checks["jordan"] == {
                "c": jtype.c, "d": jtype.d, "from": ROUTE_CERTIFICATE[classify(r, c, d).route][0]}
            ok, detail = restriction_check(w.rep, 200, s)
            assert ok and w.checks["restriction"] == {k: detail[k] for k in ("d", "c", "q")}

    # the echelon route reads both verdicts off one offset match: a failed
    # match, repeated offsets, or an End dimension other than 1 must each raise
    @pytest.mark.parametrize("name, failing, r, c, d", [
        ("echelon_offsets", None, 3, 2, 2),
        ("echelon_end_dim", 2, 3, 2, 2),
        ("is_inj", (False, None), 3, 3, 2),
        ("is_inj", (False, None), 3, 8, 5),
        ("is_brick", False, 3, 3, 2),
        ("is_brick", False, 3, 2, 1),
        ("echelon_offsets", (1, 1, 2), 3, 2, 2),
    ])
    def test_failing_certificate_is_caught(self, monkeypatch, name, failing, r, c, d):
        monkeypatch.setattr(pipeline, name, lambda *args: failing)
        route = classify(r, c, d).route
        with pytest.raises(AssertionError, match=f"{route} witness failed its exact certificates"):
            realize(r, c, d)

    def test_each_tree_is_pushed_down_once(self, monkeypatch):
        calls = []
        down = pipeline.push_down
        monkeypatch.setattr(pipeline, "push_down", lambda t: calls.append(t) or down(t))
        for (r, c, d) in ROUTE_WITNESSES:
            for mode in ("ekp", "eip"):
                calls.clear()
                w = realize(r, c, d, mode=mode)
                assert calls == ([] if w.tree is None else [w.tree]), (r, c, d, mode)

    def test_cover_and_shift_trees_match_the_references(self, monkeypatch, witness_sweep):
        monkeypatch.setattr(bgp, "build_source_regular", lambda r, n: TreeQuiver(
            r, list(reference_source_regular_growth(r, n))[-1]))
        monkeypatch.setattr(bgp, "build_indecomposable_tree_rep",
                            reference_build_indecomposable_tree_rep)
        monkeypatch.setattr(bgp, "tau_inverse_tree", reference_tau_inverse_tree)
        seen = set()
        for r, c, d, w in witness_sweep:
            route = classify(r, c, d).route
            if route in ("cover", "shift"):
                seen.add(route)
                a, b = xi(c, d)
                trace = [f"route:{route}"]
                assert pipeline._build_tree(route, r, a, b, trace) == w.tree, (r, c, d)
                assert trace == w.construction_trace, (r, c, d)
        assert seen == {"cover", "shift"}

    def test_a_shift_landing_on_the_lower_edge_is_seeded_by_the_cover_tree(self):
        # Phi(13, 34) = (2, 5) at r = 3, and 5 = (r-1)*2 + 1 lies in the cover
        # window: the seed is read off (u, v) alone, as on the cover route
        w = realize(3, 21, 13)
        assert w.construction_trace[:3] == ["route:shift", "shift:l=1:cover-case:intermediate=(2,5)",
                                            "source_regular:n=2"]
        # Phi(13, 33) = (5, 6) lies below the window: a thin zigzag
        w = realize(3, 20, 13)
        assert w.construction_trace[:3] == ["route:shift", "shift:l=1:thin-case:intermediate=(5,6)",
                                            "thin_path:u=5,v=6"]

    def test_shift_witness_is_inj_after_translates(self):
        w = realize(3, 8, 5)
        assert w.tree is not None
        assert is_inj(w.tree)[0]
        assert push_down(w.tree) == w.rep


class TestWiderArrowCounts:
    def test_realize_and_classify_agree_r5_r6(self):
        # the acceptance sweep pins r in {2,3,4}; spot-check the next two
        for r in (5, 6):
            for d in range(0, 5):
                for c in range(0, 11 - 2 * d):
                    cls = classify(r, c, d)
                    try:
                        w = realize(r, c, d)
                    except JordanTypeRejected:
                        assert not cls.accepted
                        continue
                    assert cls.accepted
                    ok, results = validate_witness(json.loads(w.to_json_str()))
                    assert ok, (r, c, d, results)


def witness_json(r, c, d, mode="ekp"):
    return json.loads(realize(r, c, d, mode=mode).to_json_str())


def reverse_the_first_tree_edge(data):
    edge = data["tree"]["edges"][0]
    edge["src"], edge["dst"] = edge["dst"], edge["src"]


def double_an_edge_entry(data):
    mat = data["tree"]["edges"][0]["mat"]
    mat[0][0] = str(2 * int(mat[0][0]))


class TestValidationDemands:
    """validate_witness decides the certificate from (r, c, d), not from the file."""

    @pytest.mark.parametrize("r, c, d, mode", [
        (3, 17, 13, "ekp"),    # cover
        (3, 2, 3, "ekp"),      # echelon
        (3, 8, 5, "eip"),      # shift
        (3, 42, 26, "ekp"),    # shift from a cover tree, intermediate (4, 10)
        (3, 42, 26, "eip"),
        (4, 112, 41, "ekp"),   # shift from a cover tree, intermediate (3, 11)
        (4, 112, 41, "eip"),
        (2, 1, 3, "ekp"),      # preprojective
        (3, 1, 0, "eip"),      # simple
    ])
    def test_downgrade_to_sampled_is_rejected(self, r, c, d, mode):
        data = witness_json(r, c, d, mode)
        assert validate_witness(data)[0]
        data["ekp_certificate"] = {"kind": "sampled", "samples": 1}
        ok, results = validate_witness(data)
        assert not ok and not results["certificate"]
        route = classify(r, c, d).route
        assert results["reason"] == (f"certificate kind 'sampled': route {route} "
                                     f"requires {ROUTE_CERTIFICATE[route][0]!r}")

    @pytest.mark.parametrize("r, c, d, mode", [
        (3, 3, 2, "ekp"),      # cover
        (2, 1, 3, "eip"),      # preprojective
        (4, 3, 1, "ekp"),      # preprojective
    ])
    def test_tree_must_push_down_to_the_witness(self, r, c, d, mode):
        # swapping two arrows keeps EKP and indecomposability; only the
        # push-down comparison can tell the witness from its tree
        data = witness_json(r, c, d, mode)
        mats = data["rep"]["mats"]
        mats[0], mats[1] = mats[1], mats[0]
        ok, results = validate_witness(data)
        assert not ok and results["certificate"] is False
        assert results["jordan"] and results["indecomposable"]

    @pytest.mark.parametrize("r, c, d, label", [
        (3, 3, 2, "brick"),         # cover
        (3, 2, 2, "local-endo"),    # echelon
    ])
    def test_wrong_evidence_label_is_rejected(self, r, c, d, label):
        data = witness_json(r, c, d)
        data["indec_evidence"] = label
        ok, results = validate_witness(data)
        route = classify(r, c, d).route
        assert not ok and results["indecomposable"] is False and results["certificate"]
        assert results["reason"] == (f"indec_evidence {label!r}: route {route} "
                                     f"requires {ROUTE_CERTIFICATE[route][1]!r}")

    @pytest.mark.parametrize("r, c, d, mode", [
        (3, 3, 2, "ekp"),      # cover
        (3, 2, 1, "eip"),      # preprojective
        (3, 8, 5, "ekp"),      # shift
    ])
    def test_tree_that_is_not_a_brick_is_rejected(self, monkeypatch, r, c, d, mode):
        # indecomposability is certified on the tree, so a failing brick
        # check on the tree alone rejects the witness
        data = witness_json(r, c, d, mode)
        brick = pipeline.is_brick
        monkeypatch.setattr(pipeline, "is_brick",
                            lambda m: not isinstance(m, TreeRep) and brick(m))
        ok, results = validate_witness(data)
        assert not ok and results["indecomposable"] is False and results["certificate"]

    def test_echelon_witness_with_a_tree_is_rejected(self):
        # the echelon route certifies the witness itself and never reads a
        # tree, so one in the file is refused rather than left unchecked
        data = witness_json(3, 2, 2)
        assert classify(3, 2, 2).route == "echelon" and "tree" not in data
        data["tree"] = witness_json(3, 3, 2)["tree"]
        ok, results = validate_witness(data)
        assert not ok and results["tree"] is False
        assert results["reason"] == "tree: route echelon carries no tree"
        assert results["certificate"] and results["indecomposable"] and results["jordan"]

    @pytest.mark.parametrize("spoil", [
        lambda mats: mats[0][0].__setitem__(1, "1"),
        lambda mats: mats.__setitem__(1, mats[0]),
    ], ids=["not-a-shifted-identity", "repeated-offset"])
    @pytest.mark.parametrize("mode", ["ekp", "eip"])
    def test_an_edited_echelon_arrow_fails_the_certificate(self, spoil, mode):
        data = witness_json(3, 2, 2, mode)     # echelon, offsets (1, 3, 2)
        spoil(data["rep"]["mats"])
        ok, results = validate_witness(data)
        assert not ok and results["certificate"] is False
        # the brick verdict stays honest: is_brick, or the offsets' End dimension
        rep = CertifiedWitness.from_json(data).rep
        side = rep if mode == "ekp" else dual(rep)
        assert results["indecomposable"] == (verify.hom_space(side, side).dim == 1)

    @pytest.mark.parametrize("spoil, reason", [
        (lambda d: d.pop("tree"), "tree: route cover needs a tree"),
        (lambda d: d["tree"].update(field={"type": "GF", "p": 3}),
         "tree: field GF(3) differs from the representation's Q"),
        (double_an_edge_entry, "tree: does not push down to the equal-kernels side"),
    ], ids=["missing", "other-field", "changed-edge"])
    @pytest.mark.parametrize("mode", ["ekp", "eip"])
    def test_a_bad_tree_is_named(self, spoil, reason, mode):
        data = witness_json(3, 3, 2, mode)     # cover
        spoil(data)
        ok, results = validate_witness(data)
        assert not ok and results["certificate"] is False and results["jordan"]
        assert results["reason"] == reason
        assert set(results) - {"reason"} == set(validate_witness(witness_json(3, 3, 2, mode))[1])

    def test_no_tree_reaches_hom_space(self, monkeypatch):
        seen = []
        hom = verify.hom_space
        monkeypatch.setattr(verify, "hom_space", lambda m, n: seen.append((m, n)) or hom(m, n))
        for (r, c, d) in ROUTE_WITNESSES:
            for mode in ("ekp", "eip"):
                assert validate_witness(witness_json(r, c, d, mode))[0], (r, c, d, mode)
        assert not any(isinstance(x, TreeRep) for pair in seen for x in pair)

    def test_dimension_must_be_xi(self):
        data = witness_json(3, 3, 2)
        data["jordan"] = [2, 2]     # realizable, but xi(2, 2) = (2, 4) != (2, 5)
        ok, results = validate_witness(data)
        assert not ok and not results["dim"]

    # a declared size must not be allocated before it is checked: these
    # took seconds and hundreds of MiB when the certificates ran first
    @pytest.mark.parametrize("spoil, reason", [
        (lambda d: d["rep"].update(dim=[1000000, 0], mats=[[], [], []]),
         "dim [1000000, 0]: jordan [3, 2] needs [2, 5]"),
        (lambda d: d["tree"]["vertices"].append({"addr": [3, 2, 3, 2, 3], "dim": 1000000}),
         "tree: source and sink dimensions sum to [2, 1000005], not [2, 5]"),
        (lambda d: d["tree"].update(r=3000000), "tree: r = 3000000, not the representation's 3"),
        (reverse_the_first_tree_edge, "tree: edge [1] -> [] runs from a sink to a source"),
    ], ids=["dim", "tree-sink", "tree-r", "tree-edge-reversed"])
    def test_a_dimension_mismatch_is_rejected_before_any_certificate(self, spoil, reason,
                                                                     monkeypatch):
        data = witness_json(3, 3, 2)     # cover
        spoil(data)
        for name in ("_certify", "push_down", "dual", "is_constant_jordan_type"):
            monkeypatch.setattr(pipeline, name, lambda *a, name=name: pytest.fail(name))
        start = time.perf_counter()
        ok, results = validate_witness(data)
        assert time.perf_counter() - start < 1.0
        assert not ok and results["reason"] == reason
        assert results[reason.split()[0].rstrip(":")] is False

    def test_unrealizable_jordan_is_rejected_with_reason(self):
        data = witness_json(3, 3, 2)
        data["jordan"] = [1, 1]
        ok, results = validate_witness(data)
        assert not ok
        assert results == {"jordan": False,
                           "reason": "jordan [1, 1] is not realizable: fails clause 'c >= r-1'"}

    @pytest.mark.parametrize("bad", ["3,2", [3], [3, 2, 1], [3.0, 2], [-1, 2], [True, 2], None])
    def test_malformed_jordan_names_the_field(self, bad):
        data = witness_json(3, 3, 2)
        data["jordan"] = bad
        with pytest.raises(ValueError, match="'jordan'"):
            validate_witness(data)

    def test_unknown_mode_names_the_field(self):
        data = witness_json(3, 3, 2)
        data["mode"] = "both"
        with pytest.raises(ValueError, match="'mode'"):
            validate_witness(data)

    @pytest.mark.parametrize("bad", ["x", 5, None, ["kind", "echelon"]])
    def test_malformed_certificate_names_the_field(self, bad):
        data = witness_json(3, 3, 2)
        data["ekp_certificate"] = bad
        with pytest.raises(ValueError, match="'ekp_certificate' must be a JSON object"):
            CertifiedWitness.from_json(data)

    @pytest.mark.parametrize("bad", [[2], 7, None, [2, 5, 1], [2.0, 5], [-2, 5], ["2", "5"]])
    def test_malformed_dim_names_the_field(self, bad):
        data = witness_json(3, 3, 2)
        data["rep"]["dim"] = bad
        with pytest.raises(ValueError, match="'dim' must be a pair of non-negative integers"):
            CertifiedWitness.from_json(data)

    @pytest.mark.parametrize("field", [{"type": "GF"}, {"type": "GF", "p": "5"},
                                       {"type": "GF", "p": None}])
    def test_malformed_prime_names_p(self, field):
        data = witness_json(3, 3, 2)
        data["rep"]["field"] = field
        with pytest.raises(ValueError, match="'p' must be an integer"):
            CertifiedWitness.from_json(data)

    # trial division takes O(sqrt p): a prime near 2**61 would stall the reader
    @pytest.mark.parametrize("p", [2**61 - 1, 1000004, 1, -7])
    @pytest.mark.parametrize("part", ["rep", "tree"])
    def test_prime_must_be_a_prime_below_2_31(self, p, part):
        data = witness_json(3, 3, 2)
        data[part]["field"] = {"type": "GF", "p": p}
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                f"field descriptor 'p' must be a prime below 2**31, got {p}")):
            CertifiedWitness.from_json(data)
        assert time.perf_counter() - start < 1.0

    def test_the_largest_prime_in_use_is_accepted(self):
        data = witness_json(3, 3, 2)
        data["rep"]["field"] = data["tree"]["field"] = {"type": "GF", "p": 1000003}
        assert CertifiedWitness.from_json(data).rep.field.modulus == 1000003

    @pytest.mark.parametrize("path, bad, message", [
        (("rep", "mats"), 5, "representation field 'mats' must be a list of r = 3 matrices"),
        (("rep", "mats"), [[]], "representation field 'mats' must be a list of r = 3 matrices"),
        (("rep", "mats", 1), 5, "representation 'mats'[1] must be a 5 x 2 list of rows"),
        (("rep", "mats", 0, 0, 1), "x", "representation 'mats'[0] has an entry that is not a "
                                        "scalar string of QQ"),
        (("rep", "mats", 2, 1, 0), 0.5, "representation 'mats'[2] has an entry that is not a "
                                        "scalar string of QQ"),
        (("rep", "mats", 0, 0, 0), "1/0", "representation 'mats'[0] has an entry that is not a "
                                          "scalar string of QQ"),
        (("rep", "r"), "x", "representation field 'r' must be an integer"),
        (("tree", "r"), "x", "tree field 'r' must be an integer"),
        (("tree", "vertices"), 5, "tree field 'vertices' must be a list"),
        (("tree", "edges"), {}, "tree field 'edges' must be a list"),
        (("tree", "vertices", 0, "addr"), 5, "tree vertex field 'addr' must be a list of colors 1..3"),
        (("tree", "vertices", 1, "addr"), [7], "tree vertex field 'addr' must be a list of colors 1..3"),
        (("tree", "vertices", 0, "dim"), "1", "tree vertex field 'dim' must be an integer"),
        (("tree", "edges", 0, "src"), None, "tree edge field 'src' must be a list of colors 1..3"),
        (("tree", "edges", 0, "mat"), [[1, 2]], "tree edge [] -> [1] 'mat' must be a 1 x 1 list of rows"),
        (("construction_trace",), 5, "witness field 'construction_trace' must be a list of strings"),
        (("construction_trace",), ["route:cover", 7],
         "witness field 'construction_trace' must be a list of strings"),
        (("checks",), "x", "witness field 'checks' must be a JSON object"),
        (("indec_evidence",), 5, "witness field 'indec_evidence' must be 'brick' or 'local-endo'"),
        (("indec_evidence",), "likely", "witness field 'indec_evidence' must be 'brick' or"),
        (("tree", "vertices", 1, "addr"), [1, True],
         "tree vertex field 'addr' must be a list of colors 1..3"),
        (("tree", "vertices", 1, "addr"), [2.0],
         "tree vertex field 'addr' must be a list of colors 1..3"),
        # an arrow count or a dimension out of range is named, not an address
        # or a matrix read with it
        (("rep", "r"), 1, "representation field 'r' must be an integer >= 2, got 1"),
        (("tree", "r"), 1, "tree field 'r' must be an integer >= 2, got 1"),
        (("tree", "r"), -5, "tree field 'r' must be an integer >= 2, got -5"),
        (("tree", "vertices", 0, "dim"), 0, "tree vertex field 'dim' must be an integer >= 1, got 0"),
        (("tree", "vertices", 1, "dim"), -2,
         "tree vertex field 'dim' must be an integer >= 1, got -2"),
        # push_down would build an r-tuple of arrows, so r is bounded above too
        (("tree", "r"), 10**12, "tree field 'r' must be at most 4194304, got 1000000000000"),
        (("rep", "r"), 10**12,
         "representation field 'r' must be at most 4194304, got 1000000000000"),
        # colors 1..3, but not a reduced word
        (("tree", "vertices", 1, "addr"), [1, 1],
         "tree vertex field 'addr' must be a list of colors 1..3, no two neighbors equal, "
         "got [1, 1]"),
        (("tree", "edges", 0, "dst"), [2, 3, 3],
         "tree edge field 'dst' must be a list of colors 1..3, no two neighbors equal, "
         "got [2, 3, 3]"),
    ])
    def test_malformed_field_is_named(self, path, bad, message):
        data = witness_json(3, 3, 2)
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        with pytest.raises(ValueError, match=re.escape(message)):
            CertifiedWitness.from_json(data)

    # realize(3, 4, 3) is a cover witness: vertex 0 is the root [] of
    # dimension 1, and edge 0 runs from [] to [1] with color 1
    @pytest.mark.parametrize("mutate, message", [
        (lambda t: t["vertices"].append(dict(t["vertices"][0])),
         "tree vertex 'addr' [] appears twice"),
        (lambda t: t["vertices"].append({"addr": [], "dim": 2}),
         "tree vertex 'addr' [] appears twice"),
        (lambda t: t["edges"].append(dict(t["edges"][0])), "tree edge [] -> [1] appears twice"),
    ], ids=["vertex", "root-with-dim-2", "edge"])
    def test_duplicate_tree_entry_is_rejected(self, mutate, message):
        data = witness_json(3, 4, 3)
        assert data["tree"]["vertices"][0] == {"addr": [], "dim": 1}
        assert data["tree"]["edges"][0]["dst"] == [1]
        mutate(data["tree"])
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_witness(data)

    @pytest.mark.parametrize("color, message", [
        (2, "tree edge field 'color' must be 1, the color of [] -> [1], got 2"),
        (True, "tree edge field 'color' must be 1, the color of [] -> [1], got True"),
        ("1", "tree edge field 'color' must be 1, the color of [] -> [1], got '1'"),
    ])
    def test_edge_color_is_checked(self, color, message):
        data = witness_json(3, 4, 3)
        data["tree"]["edges"][0]["color"] = color
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_witness(data)

    def test_edge_color_may_be_omitted(self):
        data = witness_json(3, 4, 3)
        for e in data["tree"]["edges"]:
            del e["color"]
        ok, results = validate_witness(data)
        assert ok, results

    def test_edge_to_a_non_neighbour_names_dst(self):
        data = witness_json(3, 4, 3)
        data["tree"]["edges"][0]["dst"] = [1, 2, 1, 2, 1]
        with pytest.raises(ValueError, match=re.escape(
                "tree edge field 'dst' must be adjacent to 'src' [], got [1, 2, 1, 2, 1]")):
            validate_witness(data)

    # realize(3, 3, 2) lists every neighbour of its sources, so an edge to an
    # unlisted vertex starts at one ([2, 1]) or runs from a sink ([1])
    @pytest.mark.parametrize("edge, message", [
        ({"src": [2, 1], "dst": [2], "mat": [[]]},
         "tree edge field 'src' must be a vertex listed in 'vertices', got [2, 1]"),
        ({"src": [1], "dst": [1, 3], "mat": []},
         "tree edge field 'dst' must be a vertex listed in 'vertices', got [1, 3]"),
    ], ids=["src", "dst"])
    def test_edge_to_an_unlisted_vertex_is_named(self, edge, message):
        data = witness_json(3, 3, 2)
        data["tree"]["edges"].append(edge)
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_witness(data)


class TestEipMode:
    def test_dual_witness(self):
        w = realize(3, 3, 2, mode="eip")
        assert w.mode == "eip"
        assert w.rep.dim == DimVector(5, 2)
        assert eip_sample_check(w.rep, 200, 3)
        assert w.ekp_certificate.get("via_duality")

    def test_jordan_type_agrees_with_ekp_witness(self):
        ekp_w = realize(3, 3, 2, mode="ekp")
        eip_w = realize(3, 3, 2, mode="eip")
        assert ekp_w.jordan == eip_w.jordan
        assert dual(eip_w.rep) == ekp_w.rep

    def test_round_trip(self):
        w = realize(3, 2, 2, mode="eip")
        ok, results = validate_witness(json.loads(w.to_json_str()))
        assert ok, results

    def test_simple_eip(self):
        w = realize(3, 1, 0, mode="eip")
        assert w.rep.dim == DimVector(1, 0)


# ---------------------------------------------------------------------------
# negative space: exhaustive prime-field micro-searches
# ---------------------------------------------------------------------------

class TestNegativeSpace:
    @pytest.mark.parametrize("c,d", [(1, 1), (0, 1), (0, 2)])
    def test_rejected_types_have_no_gf2_witness(self, c, d):
        # exhaustive sweep: no indecomposable of constant type [1]^c[2]^d
        r = 3
        assert not classify(r, c, d).accepted
        a, b = d, d + c
        hits = [rep for rep in gf2_reps(r, a, b)
                if has_constant_type(rep, c, d) and gf2_indecomposable(rep)]
        assert hits == []

    def test_oracle_detects_positive_space(self):
        # sanity: the same oracle does find the accepted type (2,1) = P2
        r, c, d = 3, 2, 1
        assert classify(r, c, d).accepted
        a, b = d, d + c
        hits = [rep for rep in gf2_reps(r, a, b)
                if has_constant_type(rep, c, d) and gf2_indecomposable(rep)]
        assert hits

    def test_all_small_rejected_types_with_cd_positive(self):
        # every rejected (c,d) with c,d >= 1 of total dimension <= 6 at r=3
        r = 3
        targets = [(c, d) for c in range(1, 7) for d in range(1, 3)
                   if 2 * d + c <= 6 and not classify(r, c, d).accepted]
        assert set(targets) == {(1, 1), (3, 1), (4, 1), (1, 2)}
        for (c, d) in targets:
            a, b = d, d + c
            for combo in gf2_cjt_survivors(r, a, b, d):
                rep = rep_from_bits(r, a, b, combo)
                assert not gf2_indecomposable(rep), (c, d, combo)
