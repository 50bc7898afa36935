"""Subcommand behavior and exit codes of the command-line front end."""

import ast
import hashlib
import json
import re

import numpy as np
import pytest

import cubicloop.cli as cli
import cubicloop.moufang as M
from cubicloop import kernel
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

    def test_mod_two_order(self, capsys):
        # the listing order is the order of the 243 forms they are cut from
        _, out, _ = run(capsys, "enumerate", "--mod", "2")
        lines = out.splitlines()
        assert len(lines) == 27
        assert lines[:3] == ["1:-1:-p:p", "1:-1:0:0", "1:-1:p:-p"]
        assert lines[-3:] == ["-p:1:-1-p:p", "0:1:-1-p:0", "p:1:-1-p:-p"]

    def test_mod_three_output_is_pinned(self, capsys):
        code, out, err = run(capsys, "enumerate", "--mod", "3")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_MOD3_SHA256

    def test_bad_mod(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "enumerate", "--mod", "4")


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run([])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1] == (
        "cubicloop: error: the following arguments are required: command"
    )


class TestCompose:
    def test_known_chord(self, capsys):
        got = run(capsys, "compose", "--p", "1:-1:0:0", "--q", "1:0:-1:0")
        assert got == (0, "0:1:-1:0\ntrace: nu(A)=0 nu(B)=0 margin=inf\n", "")

    def test_off_surface_point(self, capsys):
        code, _, err = run(capsys, "compose", "--p", "1:1:1:0", "--q", "1:0:-1:0")
        assert code == 2 and "not on the surface" in err

    def test_unparsable(self, capsys):
        code, _, err = run(capsys, "compose", "--p", "1:x:0:0", "--q", "1:0:-1:0")
        assert code == 2

    @pytest.mark.parametrize(
        "literal", ["(" * 200 + "1" + ")" * 200, "-" * 1000 + "1"], ids=["200-parens", "1000-minus"]
    )
    def test_deeply_nested_literal_is_a_usage_error(self, capsys, literal):
        # the --p= form, since argparse reads a separate value that starts
        # with - as an option
        code, out, err = run(capsys, "compose", f"--p={literal}:-1:0:0", "--q", "1:0:-1:0")
        assert (code, out) == (2, "")
        assert err == "error: expression nested too deeply\n"

    def test_coincident(self, capsys):
        code, _, err = run(capsys, "compose", "--p", "1:-1:0:0", "--q", "2:-2:0:0")
        assert code == 2 and "equal points" in err

    @pytest.mark.parametrize("p, q", [("0:0:0:0", "1:0:-1:0"), ("1:-1:0:0", "0:0:0:0")])
    def test_zero_tuple(self, capsys, p, q):
        # F(0) = 0 exactly, but the zero tuple names no point
        code, out, err = run(capsys, "compose", "--p", p, "--q", q)
        assert code == 2 and out == ""
        assert "not a projective point" in err


class TestLift:
    def test_lifted_point_is_on_surface(self, capsys):
        code, out, _ = run(capsys, "lift", "--family", "P", "--params", "0,1,0,0")
        assert code == 0
        from cubicloop.parsing import parse_point
        from cubicloop.surface import ProjPoint, eval_form
        from cubicloop.eisenstein import nu

        p = ProjPoint(parse_point(out.strip()))
        assert nu(eval_form(p)) >= 12

    @pytest.mark.parametrize(
        "args, line",
        [
            (
                ("lift", "--family", "P", "--params", "0,1,0,0"),
                "1:-1+p^2-p^3-p^4+p^6-p^7-p^8:p:-p",
            ),
            (
                ("--precision", "20", "lift", "--family", "R", "--params", "2,1,-1,0"),
                "-p+p^2:1:-1-p+p^2-p^3-p^5-p^7+p^8-p^9+p^10+p^11+p^14+p^16+p^18+p^19:p",
            ),
        ],
        ids=["P-default-precision", "R-precision-20"],
    )
    def test_lift_prints_the_pinned_point(self, capsys, args, line):
        assert run(capsys, *args)[:2] == (0, line + "\n")

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

    def test_cell_the_kernel_refuses_at_every_rung_is_three(self, capsys, monkeypatch):
        chord_codes = kernel.chord_codes

        def refuse(pairs, i, j, prec):
            # fixed representatives are indexed by class id
            codes = chord_codes(pairs, i, j, prec)
            codes[(i == 22) & (j == 94)] = -1
            return codes

        monkeypatch.setattr(kernel, "chord_codes", refuse)
        code, out, err = run(capsys, "verify")
        assert (code, out) == (3, "")
        assert err.startswith("precision failure: cell (22, 94) at n = 12 with seed pair None:")


# sha256 of the stdout of `enumerate --mod 3`
ENUMERATE_MOD3_SHA256 = "af95eb01f75994a2a747e8e12a5c0067d13b346a20dcb8098949f5ac642bb92f"
# sha256 of the exported files at the default precision; the table does not
# depend on the seed.
JSON_SHA256 = "47d5e324470550e4a9f7a124e3af7ad59a87261d4a7e6502ec00d90998ab38b8"
CSV_SHA256 = "025d4392644e77e82599a1d7932d8b65e2058be11473c3db10f883e4799d2a3c"


class TestTableExport:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["table"], JSON_SHA256),
            (["--seed", "1", "table"], JSON_SHA256),
            (["table", "--format", "csv"], CSV_SHA256),
        ],
        ids=["json-seed-0", "json-seed-1", "csv"],
    )
    def test_export_bytes_are_pinned(self, capsys, tmp_path, argv, digest):
        out = tmp_path / "t"
        fmt = "csv" if "csv" in argv else "json"
        assert run(capsys, *argv, "--out", str(out)) == (0, f"wrote {fmt} tables to {out}\n", "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_json_tables_are_the_text_json_dumps_gives(self, table, loop):
        rng = np.random.default_rng(20)
        tables = [rng.integers(0, 243, size=(243, 243), dtype=np.int16) for _ in range(3)]
        for t in tables:
            t[:3, -1] = (7, 42, 242)  # rows whose last id has 1, 2 and 3 digits
        for t in (*tables, table.circ, loop.mul):
            assert cli._ids_json(t) == json.dumps(t.tolist(), separators=(",", ":")).encode()

    def test_json_schema_and_determinism(self, capsys, tmp_path):
        # the pinned digests above make every run's bytes equal
        out1 = tmp_path / "a.json"
        assert run(capsys, "table", "--out", str(out1))[0] == 0
        doc = json.loads(out1.read_text())
        assert doc["modulus"] == "p^3"
        assert len(doc["classes"]) == 243
        assert len(doc["circ"]) == 243 and len(doc["mul"]) == 243
        unit = doc["unit"]
        assert doc["mul"][unit] == list(range(243))
        circ = doc["circ"]
        assert all(circ[i][j] == circ[j][i] for i in range(0, 243, 61) for j in range(243))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", [-1, 243])
    def test_export_refuses_an_entry_that_is_no_class_id(
        self, table, loop, tmp_path, fmt, value
    ):
        # -1 would print class 242 from the end of the id text table
        mul = loop.mul.copy()
        mul[5, 17] = value
        bad = M.LoopTable(mul, loop.unit, loop.inv)
        out = tmp_path / "t"
        cfg = cli.Config(out=str(out), fmt=fmt)
        with pytest.raises(ValueError, match=rf"mul cell \(5, 17\) is {value}, not a class id"):
            cli.export_table(table, bad, cfg)
        assert not out.exists()

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

    def test_nucleus_output(self, capsys):
        got = run(capsys, "nucleus")
        assert got == (0, "nucleus size 9\n9 10 11 12 13 14 15 16 17\n", "")

    def test_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.splitlines()[0] == "PASS symmetric quasigroup (118098 checks)"
        assert out.splitlines()[-1] == "order=243 exponent=3 |nucleus|=9 witnesses=8188128"

    def test_every_check_passes_at_precision_6(self, capsys):
        code, out, _ = run(capsys, "--precision", "6", "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "order=243 exponent=3 |nucleus|=9 witnesses=8188128"

    @pytest.mark.parametrize("i, j", [(0, 24), (22, 94)])
    def test_corrupted_table_fails_with_a_counterexample(
        self, capsys, monkeypatch, table, i, j
    ):
        circ = table.circ.copy()
        circ[i, j] = circ[j, i] = (circ[i, j] + 1) % 243
        bad = M.ClassTable(circ, table.precision, table.seed)
        monkeypatch.setattr(cli, "build_class_table", lambda *a, **k: bad)
        code, out, err = run(capsys, "verify")
        assert code == 1
        assert "Traceback" not in out + err
        fail = re.fullmatch(r"FAIL (.+) \(\d+ checks\) at (\(.*\))", out.splitlines()[-1])
        assert fail is not None, out
        x, y = ast.literal_eval(fail[2])
        breaks = {
            "symmetric": circ[x, y] != circ[y, x],
            "involution": circ[x, circ[x, y]] != y,
        }
        assert breaks[fail[1]]

    @pytest.mark.parametrize("command", ["table", "witness", "nucleus"])
    def test_loop_commands_refuse_a_table_that_is_no_quasigroup(
        self, capsys, monkeypatch, table, tmp_path, command
    ):
        # with cell (0, 24) changed symmetrically the table has no loop
        circ = table.circ.copy()
        circ[0, 24] = circ[24, 0] = (circ[0, 24] + 1) % 243
        bad = M.ClassTable(circ, table.precision, table.seed)
        monkeypatch.setattr(cli, "build_class_table", lambda *a, **k: bad)
        export = tmp_path / "t.json"
        argv = [command, "--out", str(export)] if command == "table" else [command]
        code, out, err = run(capsys, *argv)
        report = M.verify_quasigroup(bad)
        assert (code, err, report.passed) == (1, "", False)
        assert out.splitlines() == [
            f"FAIL {report.name} ({report.checks} checks) at {report.counterexample}"
        ]
        assert not export.exists()
