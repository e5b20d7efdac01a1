"""Command line surface: flags, JSON output, exit codes."""

import json

import pytest

from kronjord.cli import main
from kronjord.cover import thin_path_rep
from kronjord.kronecker import KroneckerRep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        target = tmp_path / "w.json"
        run(capsys, "realize", "--r", "3", "--jordan", "3,2", "--out", str(target))
        code, out = run(capsys, "verify", str(target),
                        "--checks", "ekp,cjt,indec,restriction", "--samples", "60", "--json")
        assert code == 0
        report = json.loads(out)
        assert all(chk["verdict"] for chk in report["checks"])
        assert {chk["name"] for chk in report["checks"]} == {"ekp", "cjt", "indec", "restriction"}

    def test_failing_check_nonzero_exit(self, tmp_path, capsys):
        target = tmp_path / "w.json"
        run(capsys, "realize", "--r", "3", "--jordan", "3,2",
            "--mode", "eip", "--out", str(target))
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

    def test_pushdown(self, tmp_path, capsys):
        tree = thin_path_rep(3, 2, 5)
        src = tmp_path / "tree.json"
        src.write_text(tree.to_json_str())
        dst = tmp_path / "rep.json"
        code, _ = run(capsys, "pushdown", str(src), "--out", str(dst))
        assert code == 0
        rep = KroneckerRep.from_json(json.loads(dst.read_text()))
        assert tuple(rep.dim) == (2, 5)

    def test_error_exit_code(self, capsys):
        code = main(["pushdown", "/nonexistent/file.json"])
        assert code == 1
