"""Subcommand behavior and exit codes of the command-line front end."""

import json

import pytest

import cubicloop.cli as cli
from cubicloop.eisenstein import PrecisionExhausted


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_counts(self, capsys):
        for mod, count in ((1, 3), (2, 27), (3, 243)):
            code, out, _ = run(capsys, "enumerate", "--mod", str(mod))
            assert code == 0
            assert len(out.strip().splitlines()) == count

    def test_mod_one_content(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--mod", "1")
        assert out.splitlines() == ["1:-1:0:0", "1:0:-1:0", "0:1:-1:0"]

    def test_bad_mod(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "enumerate", "--mod", "4")


class TestCompose:
    def test_known_chord(self, capsys):
        code, out, _ = run(capsys, "compose", "--p", "1:-1:0:0", "--q", "1:0:-1:0")
        assert code == 0
        assert out.splitlines()[0] == "0:1:-1:0"

    def test_off_surface_point(self, capsys):
        code, _, err = run(capsys, "compose", "--p", "1:1:1:0", "--q", "1:0:-1:0")
        assert code == 2 and "not on the surface" in err

    def test_unparsable(self, capsys):
        code, _, err = run(capsys, "compose", "--p", "1:x:0:0", "--q", "1:0:-1:0")
        assert code == 2

    def test_coincident(self, capsys):
        code, _, err = run(capsys, "compose", "--p", "1:-1:0:0", "--q", "2:-2:0:0")
        assert code == 2 and "equal points" in err


class TestLift:
    def test_lifted_point_is_on_surface(self, capsys):
        code, out, _ = run(capsys, "lift", "--family", "P", "--params", "0,1,0,0")
        assert code == 0
        from cubicloop.parsing import parse_point
        from cubicloop.surface import ProjPoint, eval_form
        from cubicloop.eisenstein import nu

        p = ProjPoint(parse_point(out.strip()))
        assert nu(eval_form(p)) >= 12

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "lift", "--family", "P", "--params", "0,1")
        assert code == 2

    def test_bad_precision(self, capsys):
        code, _, err = run(
            capsys, "--precision", "4", "lift", "--family", "P", "--params", "0,0,0,0"
        )
        assert code == 2


class TestExitCodeMapping:
    def test_verification_failure_is_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "witness_sides", lambda t, l: ((0, 0, 0), 5, 5))
        code, out, _ = run(capsys, "witness")
        assert code == 1
        assert "FAIL" in out

    def test_precision_failure_is_three(self, capsys, monkeypatch):
        def boom(p, q):
            raise PrecisionExhausted("synthetic")

        monkeypatch.setattr(cli, "chord", boom)
        code, _, err = run(capsys, "compose", "--p", "1:-1:0:0", "--q", "1:0:-1:0")
        assert code == 3 and "precision failure" in err


class TestTableExport:
    def test_json_schema_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(capsys, "table", "--out", str(out1))[0] == 0
        assert run(capsys, "table", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["modulus"] == "p^3"
        assert len(doc["classes"]) == 243
        assert len(doc["circ"]) == 243 and len(doc["mul"]) == 243
        unit = doc["unit"]
        assert doc["mul"][unit] == list(range(243))
        circ = doc["circ"]
        assert all(circ[i][j] == circ[j][i] for i in range(0, 243, 61) for j in range(243))

    def test_csv(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "table", "--out", str(out), "--format", "csv")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "op,row,col,value"
        assert len(lines) == 1 + 2 * 243 * 243


class TestVerifySuites:
    def test_witness_output(self, capsys):
        code, out, _ = run(capsys, "witness")
        assert code == 0
        assert "PASS non-associative witness" in out
        assert "p vs p-p^2" in out

    def test_quasigroup_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quasigroup")
        assert code == 0 and "PASS symmetric quasigroup" in out

    def test_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert out.splitlines()[-1] == "order=243 exponent=3 |nucleus|=9 witnesses=8188128"
