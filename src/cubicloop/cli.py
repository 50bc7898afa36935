"""Command-line front end.

Subcommands: enumerate, compose, lift, table, verify, witness, nucleus.
Exit codes: 0 success, 1 verification failure, 2 input/parse error,
3 precision failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import moufang, surface
from .eisenstein import PrecisionExhausted, nu, to_digits
from .moufang import (
    CheckReport,
    ClassTable,
    LoopTable,
    build_class_table,
    class_forms,
    class_params,
    loop_from,
    named_class,
    nucleus,
    verify_quasigroup,
    verify_suites,
    witness_sides,
)
from .parsing import ParseError, format_digits, parse_point
from .surface import (
    CanonicalForm,
    LambdaParams,
    ProjPoint,
    chord,
    enumerate_classes,
    eval_form,
    lift_representative,
    normalize,
)


@dataclass
class Config:
    precision: int = surface.DEFAULT_PRECISION
    seed: int = 0
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.precision < 6:
            raise ParseError(f"precision must be at least 6, got {self.precision}")


def format_form(cf: CanonicalForm) -> str:
    return ":".join(format_digits(d) for d in cf.coords)


def _point_from_literal(text: str) -> ProjPoint:
    coords = parse_point(text)
    if all(c.is_zero() for c in coords):
        raise ParseError("not a projective point: all four coordinates are zero")
    p = ProjPoint(coords)
    v = nu(eval_form(p))
    if v < 6:
        raise ParseError(f"point is not on the surface: nu(F) = {v} < 6")
    prec = None if v == surface.INFINITE else int(v) - 2
    return ProjPoint(coords, prec)


def cmd_enumerate(args, cfg: Config) -> int:
    for cf in enumerate_classes(args.mod):
        print(format_form(cf))
    return 0


def cmd_compose(args, cfg: Config) -> int:
    p = _point_from_literal(args.p)
    q = _point_from_literal(args.q)
    r, trace = chord(p, q)
    cf = normalize(r, 3)
    print(format_form(cf))
    print(
        f"trace: nu(A)={nu(trace.chord_a)} nu(B)={nu(trace.chord_b)} "
        f"margin={trace.margin}"
    )
    return 0


def cmd_lift(args, cfg: Config) -> int:
    parts = [int(x) for x in args.params.split(",")]
    if len(parts) != 4:
        raise ParseError("--params needs 4 comma-separated integers: exp,d1,d2,d3")
    lp = LambdaParams(args.family, parts[0], tuple(parts[1:]))
    point = lift_representative(lp, cfg.precision)
    print(":".join(format_digits(to_digits(c, cfg.precision)) for c in point.coords))
    return 0


def _table(cfg: Config) -> ClassTable:
    return build_class_table(cfg.precision, seed=cfg.seed, admissibility_cells=0)


class CheckFailed(Exception):
    """A check the command relies on failed; `run` prints its report."""

    def __init__(self, report: CheckReport):
        super().__init__(report.name)
        self.report = report


def _build(cfg: Config) -> tuple[ClassTable, LoopTable]:
    """The table and its loop with unit U0; CheckFailed if the table is no
    symmetric quasigroup, which the loop needs."""
    table = _table(cfg)
    report = verify_quasigroup(table)
    if not report.passed:
        raise CheckFailed(report)
    return table, loop_from(table, named_class(moufang.U0))


# Zero-padded JSON of class k in a table: "k," inside a row, "k],[" at its end
_INNER = np.array([f"{k}," for k in range(moufang.N_CLASSES)], "S4")
_LAST = np.array([f"{k}],[" for k in range(moufang.N_CLASSES)], "S6")


def _ids_json(table: np.ndarray) -> bytes:
    """`table` as a JSON array of rows: gathered tokens, padding masked out."""
    inner, last = _INNER.take(table[:, :-1]), _LAST.take(table[:, -1:])
    text = np.hstack((inner.view(np.uint8), last.view(np.uint8)))
    return b"[[" + text[text != 0].tobytes()[:-2] + b"]"


@functools.lru_cache(maxsize=1)
def _classes_text() -> bytes:
    """The JSON array of the classes' records (id, family, exp, digits and
    the representative's digits), the same for every table."""
    classes = [
        {
            "id": k,
            "family": lp.family,
            "exp": lp.exp,
            "digits": lp.digits,
            "rep": form.coords,
        }
        for k, (lp, form) in enumerate(zip(class_params(), class_forms()))
    ]
    return json.dumps(classes, sort_keys=True, separators=(",", ":")).encode()


def export_table(t: ClassTable, l: LoopTable, cfg: Config) -> None:
    if cfg.out is None:
        raise ParseError("--out is required for table export")
    for name, table in (("circ", t.circ), ("mul", l.mul)):
        # an entry outside [0, 243) would index another entry's token
        if (cell := moufang._stray_cell(table)) is not None:
            raise ValueError(f"{name} cell {cell} is {table[cell]}, not a class id")
    if cfg.fmt == "json":
        # json.dump's bytes with sorted keys and no spaces; its Python encoder is slow
        with open(cfg.out, "wb") as fh:
            fh.writelines((b'{"circ":', _ids_json(t.circ), b',"classes":', _classes_text()))
            fh.writelines((b',"modulus":"p^3","mul":', _ids_json(l.mul)))
            fh.write(b',"precision":%d,"unit":%d}\n' % (t.precision, l.unit))
    elif cfg.fmt == "csv":
        # One writerows per table row: a single call over all 118,098 lines
        # would hold them at once (5.7 MB) and was no faster.
        cols = range(moufang.N_CLASSES)
        with open(cfg.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op", "row", "col", "value"])
            for name, table in (("circ", t.circ), ("mul", l.mul)):
                for i, row in enumerate(table):
                    writer.writerows(zip(repeat(name), repeat(i), cols, row.tolist()))
    else:
        raise ParseError(f"unknown format {cfg.fmt!r}")


def cmd_table(args, cfg: Config) -> int:
    t, l = _build(cfg)
    export_table(t, l, cfg)
    print(f"wrote {cfg.fmt} tables to {cfg.out}")
    return 0


def _print_reports(reports: list[CheckReport]) -> int:
    """One PASS/FAIL line per report; a FAIL line adds its counterexample
    and detail.  Returns the exit code: 1 if any report failed."""
    for rep in reports:
        line = f"{'PASS' if rep.passed else 'FAIL'} {rep.name} ({rep.checks} checks)"
        if not rep.passed:
            if rep.counterexample is not None:
                line += f" at {rep.counterexample}"
            if rep.detail:
                line += f": {rep.detail}"
        print(line)
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_verify(args, cfg: Config) -> int:
    reports = verify_suites(_table(cfg), named_class(moufang.U0), cfg.seed)
    code = _print_reports(reports)
    if code == 0:
        print(f"order={moufang.N_CLASSES} {reports[-1].detail}")
    return code


def cmd_witness(args, cfg: Config) -> int:
    t, l = _build(cfg)
    triple, left, right = witness_sides(t, l)
    left_form = class_forms()[left]
    right_form = class_forms()[right]
    print(f"witness triple {triple}: (XY) o Z -> {format_form(left_form)}")
    print(f"witness triple {triple}: X o (YZ) -> {format_form(right_form)}")
    print(
        f"fourth coordinates: {format_digits(left_form.coords[3])} vs "
        f"{format_digits(right_form.coords[3])}"
    )
    return _print_reports([CheckReport("non-associative witness", left != right, 1, triple)])


def cmd_nucleus(args, cfg: Config) -> int:
    _, l = _build(cfg)
    members = sorted(nucleus(l))
    print(f"nucleus size {len(members)}")
    print(" ".join(str(m) for m in members))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicloop",
        description="243-class Moufang loop of a diagonal cubic surface over Q3(theta)",
    )
    parser.add_argument("--precision", type=int, default=surface.DEFAULT_PRECISION)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        return p

    p_enum = command("enumerate", cmd_enumerate, "print the canonical residue tuples")
    p_enum.add_argument("--mod", type=int, choices=(1, 2, 3), required=True)

    p_comp = command("compose", cmd_compose, "chord composition of two points")
    p_comp.add_argument("--p", required=True)
    p_comp.add_argument("--q", required=True)

    p_lift = command("lift", cmd_lift, "lift a class label to a surface point")
    p_lift.add_argument("--family", choices=("P", "Q", "R"), required=True)
    p_lift.add_argument("--params", required=True, help="exp,d1,d2,d3")

    p_table = command("table", cmd_table, "build and export the Cayley tables")
    p_table.add_argument("--out", required=True)
    p_table.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    command("verify", cmd_verify, "run every verification check")
    command("witness", cmd_witness, "print the non-associative triple")
    command("nucleus", cmd_nucleus, "print the associative center")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = Config(
            precision=args.precision,
            seed=args.seed,
            out=getattr(args, "out", None),
            fmt=getattr(args, "fmt", "json"),
        )
        return args.handler(args, cfg)
    except CheckFailed as exc:
        return _print_reports([exc.report])
    except (ParseError, ValueError, OSError, surface.PointsCoincide, surface.DegenerateLine) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
