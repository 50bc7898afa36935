"""Command-line front end.

Subcommands: enumerate, compose, lift, table, verify, witness, nucleus.
Exit codes: 0 success, 1 verification failure, 2 input/parse error,
3 precision failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

from . import moufang, surface
from .eisenstein import PrecisionExhausted, RingElt, nu, to_digits
from .moufang import (
    AdmissibilityViolation,
    ClassTable,
    LoopTable,
    associator_mask,
    build_class_table,
    check_admissibility,
    ch_check,
    class_forms,
    class_params,
    eckhardt_check,
    exponent,
    loop_from,
    named_class,
    nucleus,
    verify_cml,
    verify_quasigroup,
    witness_sides,
)
from .parsing import ParseError, format_digits, parse_element, parse_point
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


class VerificationFailure(Exception):
    pass


@dataclass
class Config:
    precision: int = surface.DEFAULT_PRECISION
    seed: int = 0
    lift_samples: int = 20
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.precision < 6:
            raise ParseError(f"precision must be at least 6, got {self.precision}")


def format_form(cf: CanonicalForm) -> str:
    return ":".join(format_digits(d) for d in cf.coords)


def _point_from_literal(text: str) -> ProjPoint:
    coords = parse_point(text)
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


def _build(cfg: Config, admissibility_cells: int = 0) -> tuple[ClassTable, LoopTable]:
    table = build_class_table(
        cfg.precision, cfg.lift_samples, cfg.seed, admissibility_cells
    )
    loop = loop_from(table, named_class(moufang.U0))
    return table, loop


def export_table(t: ClassTable, l: LoopTable, cfg: Config) -> None:
    if cfg.out is None:
        raise ParseError("--out is required for table export")
    if cfg.fmt == "json":
        classes = []
        for k, (lp, form) in enumerate(zip(class_params(), class_forms())):
            classes.append(
                {
                    "id": k,
                    "family": lp.family,
                    "exp": lp.exp,
                    "digits": list(lp.digits),
                    "rep": [list(d.digits) for d in form.coords],
                }
            )
        doc = {
            "modulus": "p^3",
            "precision": t.precision,
            "unit": int(l.unit),
            "classes": classes,
            "circ": t.circ.tolist(),
            "mul": l.mul.tolist(),
        }
        with open(cfg.out, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    elif cfg.fmt == "csv":
        with open(cfg.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op", "row", "col", "value"])
            for name, table in (("circ", t.circ), ("mul", l.mul)):
                for i in range(moufang.N_CLASSES):
                    for j in range(moufang.N_CLASSES):
                        writer.writerow([name, i, j, int(table[i, j])])
    else:
        raise ParseError(f"unknown format {cfg.fmt!r}")


def cmd_table(args, cfg: Config) -> int:
    t, l = _build(cfg)
    export_table(t, l, cfg)
    print(f"wrote {cfg.fmt} tables to {cfg.out}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + detail) if detail else ''}")
    if not ok:
        raise VerificationFailure(name)


def cmd_verify(args, cfg: Config) -> int:
    suite = args.suite
    needs_table = suite in ("all", "quasigroup", "cml", "admissibility", "witness", "ch")
    t = l = None
    if needs_table:
        t, l = _build(cfg)
    if suite in ("all", "quasigroup"):
        rep = verify_quasigroup(t)
        _check(rep.name, rep.passed, f"({rep.checks} checks)")
    if suite in ("all", "cml"):
        for rep in verify_cml(l):
            _check(rep.name, rep.passed, f"({rep.checks} checks)")
    if suite in ("all", "admissibility"):
        cells = 500 if suite == "admissibility" else 50
        try:
            passes, _ = check_admissibility(t, cells, cfg.lift_samples, cfg.seed)
        except AdmissibilityViolation as exc:
            _check("admissibility", False, str(exc))
        _check("admissibility", True, f"({passes} compositions)")
    if suite in ("all", "witness"):
        triple, left, right = witness_sides(t, l)
        left_form = class_forms()[left]
        right_form = class_forms()[right]
        print(f"witness triple {triple}: (XY) o Z -> {format_form(left_form)}")
        print(f"witness triple {triple}: X o (YZ) -> {format_form(right_form)}")
        print(
            f"fourth coordinates: {format_digits(left_form.coords[3])} vs "
            f"{format_digits(right_form.coords[3])}"
        )
        _check("non-associative witness", left != right)
    if suite in ("all", "ch"):
        rep = ch_check(t, samples=200, seed=cfg.seed)
        _check(rep.name, rep.passed, f"({rep.checks} triples)")
    if suite in ("all", "eckhardt"):
        rep = eckhardt_check(50, cfg.seed, cfg.precision)
        detail = f"({rep.checks} swaps)" if rep.passed else f"at {rep.counterexample}"
        _check(rep.name, rep.passed, detail)
    if suite == "all":
        print(
            f"order={moufang.N_CLASSES} exponent={exponent(l)} "
            f"|nucleus|={len(nucleus(l))} witnesses={int(associator_mask(l).sum())}"
        )
    return 0


def cmd_witness(args, cfg: Config) -> int:
    args.suite = "witness"
    return cmd_verify(args, cfg)


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
    parser.add_argument("--lift-samples", type=int, default=20)
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="print the canonical residue tuples")
    p_enum.add_argument("--mod", type=int, choices=(1, 2, 3), required=True)

    p_comp = sub.add_parser("compose", help="chord composition of two points")
    p_comp.add_argument("--p", required=True)
    p_comp.add_argument("--q", required=True)

    p_lift = sub.add_parser("lift", help="lift a class label to a surface point")
    p_lift.add_argument("--family", choices=("P", "Q", "R"), required=True)
    p_lift.add_argument("--params", required=True, help="exp,d1,d2,d3")

    p_table = sub.add_parser("table", help="build and export the Cayley tables")
    p_table.add_argument("--out", required=True)
    p_table.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        choices=("all", "quasigroup", "cml", "admissibility", "witness", "ch", "eckhardt"),
        default="all",
    )

    sub.add_parser("witness", help="print the non-associative triple")
    sub.add_parser("nucleus", help="print the associative center")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = Config(
            precision=args.precision,
            seed=args.seed,
            lift_samples=args.lift_samples,
            out=getattr(args, "out", None),
            fmt=getattr(args, "fmt", "json"),
        )
        handler = {
            "enumerate": cmd_enumerate,
            "compose": cmd_compose,
            "lift": cmd_lift,
            "table": cmd_table,
            "verify": cmd_verify,
            "witness": cmd_witness,
            "nucleus": cmd_nucleus,
        }[args.command]
        return handler(args, cfg)
    except VerificationFailure:
        return 1
    except AdmissibilityViolation as exc:
        print(f"admissibility violation: {exc}", file=sys.stderr)
        return 1
    except (
        ParseError,
        ValueError,
        OSError,
        surface.PointsCoincide,
        surface.DegenerateLine,
        surface.NotTangentDirection,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
