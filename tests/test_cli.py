"""Command line surface: flags, JSON output, exit codes."""

import json

import pytest

from kronjord import cli, verify
from kronjord.cli import main
from kronjord.cover import build_indecomposable_tree_rep, build_root_vector, build_source_regular
from kronjord.cover import push_down, thin_path_rep
from kronjord.echelon import build_echelon_rep, select_phi
from kronjord.exactmat import GF
from kronjord.kronecker import KroneckerRep, direct_sum
from kronjord.pipeline import validate_witness


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def realize_to(tmp_path, capsys, r, jordan, mode="ekp"):
    """Realize [1]^c [2]^d through the CLI; the witness file's path."""
    target = tmp_path / f"w-{r}-{jordan}-{mode}.json".replace(",", "_")
    code, _ = run(capsys, "realize", "--r", str(r), "--jordan", jordan,
                  "--mode", mode, "--out", str(target))
    assert code == 0
    return target


def bare_rep_of(path):
    """A file holding only the representation of the witness at ``path``."""
    bare = path.with_name("bare-" + path.name)
    bare.write_text(json.dumps(json.loads(path.read_text())["rep"]))
    return bare


def tampered_cover_witness(tmp_path, capsys):
    """The [1]^3 [2]^2 cover witness claiming the echelon route's certificate
    and evidence, with its first tree edge map zeroed."""
    target = realize_to(tmp_path, capsys, 3, "3,2")
    data = json.loads(target.read_text())
    data["ekp_certificate"]["kind"] = "echelon"
    data["indec_evidence"] = "brick"
    edge = data["tree"]["edges"][0]
    edge["mat"] = [["0"] * len(row) for row in edge["mat"]]
    target.write_text(json.dumps(data))
    return target


class TestClassify:
    def test_accept(self, capsys):
        code, out = run(capsys, "classify", "--r", "3", "--jordan", "3,2")
        assert code == 0 and "cover" in out

    def test_reject_exit_code(self, capsys):
        code, out = run(capsys, "classify", "--r", "3", "--jordan", "1,1")
        assert code == 2 and "c >= r-1" in out

    def test_json(self, capsys):
        code, out = run(capsys, "classify", "--r", "3", "--jordan", "3,2", "--json")
        data = json.loads(out)
        assert data["accepted"] and data["dim"] == [2, 5]


class TestRealize:
    def test_writes_witness(self, tmp_path, capsys):
        target = tmp_path / "w.json"
        code, _ = run(capsys, "realize", "--r", "3", "--jordan", "3,2", "--out", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["jordan"] == [3, 2]
        assert data["ekp_certificate"]["kind"] == "inj-cover"

    def test_reject(self, capsys):
        code, out = run(capsys, "realize", "--r", "3", "--jordan", "1,1", "--json")
        assert code == 2
        assert not json.loads(out)["accepted"]

    def test_eip_mode(self, tmp_path, capsys):
        target = tmp_path / "w.json"
        code, _ = run(capsys, "realize", "--r", "3", "--jordan", "2,2",
                      "--mode", "eip", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["mode"] == "eip"


class TestVerify:
    def test_checks_pass_on_witness(self, tmp_path, capsys):
        target = bare_rep_of(realize_to(tmp_path, capsys, 3, "3,2"))
        code, out = run(capsys, "verify", str(target),
                        "--checks", "ekp,cjt,indec,restriction", "--samples", "60", "--json")
        assert code == 0
        report = json.loads(out)
        assert all(chk["verdict"] for chk in report["checks"])
        assert {chk["name"] for chk in report["checks"]} == {"ekp", "cjt", "indec", "restriction"}

    def test_failing_check_nonzero_exit(self, tmp_path, capsys):
        target = bare_rep_of(realize_to(tmp_path, capsys, 3, "3,2", mode="eip"))
        # an equal-images witness fails the equal-kernels check
        code, _ = run(capsys, "verify", str(target), "--checks", "ekp", "--samples", "20")
        assert code == 1

    def test_bare_rep_file(self, tmp_path, capsys):
        target = tmp_path / "rep.json"
        run(capsys, "realize", "--r", "2", "--jordan", "1,1", "--out", str(target))
        rep_only = json.loads(target.read_text())["rep"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(rep_only))
        code, _ = run(capsys, "verify", str(bare), "--checks", "ekp,cjt", "--samples", "20")
        assert code == 0

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_checks_naming_no_check_fail(self, tmp_path, capsys, checks):
        target = bare_rep_of(realize_to(tmp_path, capsys, 3, "3,2"))
        code = main(["verify", str(target), "--checks", checks])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert ("error: --checks names no check; choose from "
                "['cjt', 'eip', 'ekp', 'indec', 'restriction']") in captured.err

    @pytest.mark.parametrize("checks", ["cjt", "ekp"])
    @pytest.mark.parametrize("samples", ["-5", "0"])
    def test_samples_below_one_fail(self, tmp_path, capsys, checks, samples):
        target = bare_rep_of(realize_to(tmp_path, capsys, 3, "3,2"))
        code = main(["verify", str(target), "--checks", checks, "--samples", samples])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"error: --samples must be at least 1, got {samples}" in captured.err
        assert "Traceback" not in captured.err

    def test_cjt_needs_two_samples(self, tmp_path, capsys):
        target = bare_rep_of(realize_to(tmp_path, capsys, 3, "3,2"))
        code = main(["verify", str(target), "--checks", "ekp,cjt", "--samples", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "error: --samples must be at least 2 for cjt, got 1" in captured.err
        assert "Traceback" not in captured.err
        # one sample is enough for every other check, and is what the report says it ran
        code, out = run(capsys, "verify", str(target), "--checks", "ekp,restriction",
                        "--samples", "1", "--json")
        assert code == 0 and json.loads(out)["samples"] == 1

    def test_missing_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"r": 3}))
        code = main(["verify", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "missing field" in err and "'field'" in err

    def test_malformed_dim_named(self, tmp_path, capsys):
        target = tmp_path / "w.json"
        run(capsys, "realize", "--r", "3", "--jordan", "3,2", "--out", str(target))
        data = json.loads(target.read_text())
        data["rep"]["dim"] = [2]
        target.write_text(json.dumps(data))
        code = main(["verify", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: representation field 'dim' must be a pair of non-negative integers" in err


    def test_malformed_mats_named(self, tmp_path, capsys):
        target = tmp_path / "w.json"
        run(capsys, "realize", "--r", "3", "--jordan", "3,2", "--out", str(target))
        data = json.loads(target.read_text())
        data["rep"]["mats"] = 5
        target.write_text(json.dumps(data))
        code = main(["verify", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: representation field 'mats' must be a list of r = 3 matrices, got 5" in err

    @pytest.mark.parametrize("payload", ["5", '"rep"', "null", "true"])
    def test_top_level_scalar_rejected(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code = main(["verify", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: expected a JSON object (a witness or a representation)" in err


class TestVerifyWitness:
    """A witness file is re-validated by validate_witness, and nothing else."""

    def test_tampered_witness_is_rejected(self, tmp_path, capsys):
        code, out = run(capsys, "verify", str(tampered_cover_witness(tmp_path, capsys)))
        assert code == 1
        assert "certificate: FAIL" in out and "indecomposable: FAIL" in out
        assert "certificate kind 'echelon'" in out
        assert "indec_evidence 'brick'" in out
        assert "tree: does not push down" in out

    # a tree edge the wrong way round, and one from a vertex the tree does
    # not list, are rejected with a message that names the tree
    @pytest.mark.parametrize("spoil, message", [
        (lambda edges: edges[0].update(src=edges[0]["dst"], dst=edges[0]["src"]),
         "tree: edge [1] -> [] runs from a sink to a source"),
        (lambda edges: edges.append({"src": [2, 1], "dst": [2], "mat": [[]]}),
         "error: tree edge field 'src' must be a vertex listed in 'vertices', got [2, 1]"),
    ], ids=["reversed-edge", "unlisted-vertex"])
    def test_spoiled_tree_is_named(self, tmp_path, capsys, spoil, message):
        target = realize_to(tmp_path, capsys, 3, "3,2")
        data = json.loads(target.read_text())
        spoil(data["tree"]["edges"])
        target.write_text(json.dumps(data))
        code = main(["verify", str(target)])
        captured = capsys.readouterr()
        assert code == 1 and message in captured.out + captured.err

    def test_non_reduced_address_is_named(self, tmp_path, capsys):
        # [1, 1] uses colors in 1..3 but is not a reduced word
        target = realize_to(tmp_path, capsys, 3, "3,2")
        data = json.loads(target.read_text())
        data["tree"]["vertices"][1]["addr"] = [1, 1]
        target.write_text(json.dumps(data))
        code = main(["verify", str(target)])
        captured = capsys.readouterr()
        assert code == 1 and "tree vertex field 'addr'" in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("spoil, want", [
        (lambda t: t["edges"].append(dict(t["edges"][0])), "tree edge [] -> [1] appears twice"),
        (lambda t: t["edges"][0].update(color=2), "tree edge field 'color' must be 1"),
        # [true] equals the listed sink [1], but is not a word
        (lambda t: t["edges"][0].update(src=[True], dst=[]),
         "tree edge field 'src' must be a list of colors 1..3"),
    ], ids=["duplicate-edge", "wrong-color", "true-src"])
    def test_spoiled_tree_edge_is_named(self, tmp_path, capsys, spoil, want):
        target = realize_to(tmp_path, capsys, 3, "3,2")
        data = json.loads(target.read_text())
        spoil(data["tree"])
        target.write_text(json.dumps(data))
        code = main(["verify", str(target)])
        captured = capsys.readouterr()
        assert code == 1 and want in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("mode", ["ekp", "eip"])
    @pytest.mark.parametrize("jordan", ["1,0", "2,1", "2,2", "3,2", "8,5"],
                             ids=["simple", "preprojective", "echelon", "cover", "shift"])
    def test_untampered_witnesses_pass(self, tmp_path, capsys, jordan, mode):
        target = realize_to(tmp_path, capsys, 3, jordan, mode)
        code, out = run(capsys, "verify", str(target), "--json")
        assert code == 0
        report = json.loads(out)
        names = {"dim", "certificate", "indecomposable", "jordan"} | (
            {"eip_samples"} if mode == "eip" else set())
        assert {chk["name"] for chk in report["checks"]} == names
        assert all(chk["verdict"] is True for chk in report["checks"])
        assert "reason" not in report and report["seed"] == 0

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("tampered", [False, True])
    def test_report_is_validate_witness(self, tmp_path, capsys, seed, tampered):
        target = (tampered_cover_witness(tmp_path, capsys) if tampered
                  else realize_to(tmp_path, capsys, 3, "3,2", "eip"))
        code, out = run(capsys, "verify", str(target), "--seed", str(seed), "--json")
        ok, results = validate_witness(json.loads(target.read_text()), seed=seed)
        report = json.loads(out)
        assert code == (0 if ok else 1)
        assert {chk["name"]: chk["verdict"] for chk in report["checks"]} == {
            name: verdict for name, verdict in results.items() if name != "reason"}
        assert report.get("reason") == results.get("reason")
        assert report["seed"] == seed

    @pytest.mark.parametrize("flag,value", [("--checks", "ekp"), ("--samples", "60")])
    def test_bare_rep_flags_refused(self, tmp_path, capsys, flag, value):
        target = realize_to(tmp_path, capsys, 3, "3,2")
        code = main(["verify", str(target), flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {flag} applies to a bare representation" in err

    def test_rep_alone_is_not_a_witness(self, tmp_path, capsys):
        target = realize_to(tmp_path, capsys, 3, "3,2")
        rep_only = tmp_path / "rep-only.json"
        rep_only.write_text(json.dumps({"rep": json.loads(target.read_text())["rep"]}))
        code = main(["verify", str(rep_only)])
        err = capsys.readouterr().err
        assert code == 1
        assert "witness is missing field(s) 'jordan'" in err

    def test_no_locality_test_on_a_witness(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "end_is_local", pytest.fail)
        code, _ = run(capsys, "verify", str(realize_to(tmp_path, capsys, 3, "3,2")))
        assert code == 0


class TestVerifyBareIndec:
    """``indec`` on a bare representation tries is_brick, then end_is_local."""

    def verify_indec(self, tmp_path, capsys, monkeypatch, rep):
        calls = []
        real = cli.end_is_local
        monkeypatch.setattr(cli, "end_is_local", lambda m: calls.append(m) or real(m))
        target = tmp_path / "rep.json"
        target.write_text(rep.to_json_str())
        code, _ = run(capsys, "verify", str(target), "--checks", "indec")
        return code, len(calls)

    def test_prime_field_brick(self, tmp_path, capsys, monkeypatch):
        rep = build_echelon_rep(select_phi(3, 4, 8), GF(5))
        assert self.verify_indec(tmp_path, capsys, monkeypatch, rep) == (0, 0)

    def test_local_non_brick_goes_to_end_is_local(self, tmp_path, capsys, monkeypatch):
        # the r=3 (13, 30) cover witness: indecomposable, End of dimension 7
        q = build_source_regular(3, 13)
        rep = push_down(build_indecomposable_tree_rep(q, build_root_vector(q, 13, 30)))
        assert self.verify_indec(tmp_path, capsys, monkeypatch, rep) == (0, 1)

    def test_local_non_brick_builds_its_end_system_once(self, tmp_path, capsys, monkeypatch):
        # is_brick ranks the system that end_is_local's hom_space then solves
        built = []
        rows = verify._intertwining_rows
        monkeypatch.setattr(verify, "_intertwining_rows",
                            lambda m, n: built.append(m) or rows(m, n))
        q = build_source_regular(3, 5)
        rep = push_down(build_indecomposable_tree_rep(q, build_root_vector(q, 5, 12)))
        assert self.verify_indec(tmp_path, capsys, monkeypatch, rep) == (0, 1)
        assert len(built) == 1 and built[0] == rep

    def test_direct_sum_fails(self, tmp_path, capsys, monkeypatch):
        m = build_echelon_rep(select_phi(3, 2, 4))
        assert self.verify_indec(tmp_path, capsys, monkeypatch, direct_sum(m, m)) == (1, 1)


class TestRootsCoxeterPushdown:
    def test_roots_table(self, capsys):
        code, out = run(capsys, "roots", "--r", "3", "--max", "5", "--json")
        assert code == 0
        rows = json.loads(out)
        by_dim = {tuple(e["dim"]): e for e in rows}
        assert by_dim[(1, 3)]["kind"] == "real"
        assert by_dim[(2, 5)]["kind"] == "imaginary"
        assert by_dim[(2, 5)]["in_ijt"] is True
        assert by_dim[(1, 2)]["in_ijt"] is False

    def test_coxeter(self, capsys):
        code, out = run(capsys, "coxeter", "--r", "3", "--dim", "2,5", "--power", "1", "--json")
        assert code == 0 and json.loads(out)["result"] == [1, 1]

    def test_coxeter_needs_r_at_least_2(self, capsys):
        code = main(["coxeter", "--r", "1", "--dim", "2,5", "--power", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "error: r must be at least 2" in captured.err

    def test_pushdown(self, tmp_path, capsys):
        tree = thin_path_rep(3, 2, 5)
        src = tmp_path / "tree.json"
        src.write_text(tree.to_json_str())
        dst = tmp_path / "rep.json"
        code, _ = run(capsys, "pushdown", str(src), "--out", str(dst))
        assert code == 0
        rep = KroneckerRep.from_json(json.loads(dst.read_text()))
        assert tuple(rep.dim) == (2, 5)

    def test_reversed_tree_edge_is_named(self, tmp_path, capsys):
        tree = json.loads(realize_to(tmp_path, capsys, 3, "3,2").read_text())["tree"]
        edge = tree["edges"][0]
        edge["src"], edge["dst"] = edge["dst"], edge["src"]
        src = tmp_path / "reversed-tree.json"
        src.write_text(json.dumps(tree))
        code = main(["pushdown", str(src)])
        captured = capsys.readouterr()
        assert code == 1
        assert "edge [1] -> [] runs from a sink to a source" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_zero_tree_dimension_is_named(self, tmp_path, capsys):
        tree = json.loads(realize_to(tmp_path, capsys, 3, "3,2").read_text())["tree"]
        tree["vertices"][0]["dim"] = 0
        src = tmp_path / "zero-dim-tree.json"
        src.write_text(json.dumps(tree))
        code = main(["pushdown", str(src)])
        captured = capsys.readouterr()
        assert code == 1
        assert "tree vertex field 'dim' must be an integer >= 1, got 0" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_huge_tree_r_is_named(self, tmp_path, capsys, monkeypatch):
        # the one-vertex tree would push down to an r-tuple of arrows: were the
        # reader to let it through, the test fails instead of filling memory
        def no_push_down(tree):
            raise AssertionError(f"push_down reached with r = {tree.r}")

        monkeypatch.setattr(cli, "push_down", no_push_down)
        src = tmp_path / "huge-r-tree.json"
        src.write_text(json.dumps({"r": 10**12, "vertices": [{"addr": [], "dim": 1}],
                                   "edges": []}))
        code = main(["pushdown", str(src)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "tree field 'r' must be at most 4194304, got 1000000000000" in captured.err
        assert "Traceback" not in captured.err

    def test_error_exit_code(self, capsys):
        code = main(["pushdown", "/nonexistent/file.json"])
        assert code == 1


class TestUsageErrors:
    """argparse's own exit status 2 would read as a rejected Jordan type."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--r", "3"],
        ["classify", "--r", "x", "--jordan", "1,2"],
        ["classify", "--r", "3", "--jordan", "1,2,3"],
        ["realize", "--r", "3", "--jordan", "3,2", "--mode", "foo"],
        ["frobnicate"],
        [],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["realize", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out
