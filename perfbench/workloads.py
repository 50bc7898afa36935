"""The three workloads: set-up, one op each, and the gate that checks an op's
outputs.  An op returns its outputs; its gate raises `WrongOutput` when they
are wrong and otherwise returns the benchmark-side per-layer values
(`moufang.checks`, `cli.export_table.bytes`).  Gates run outside the timed
region."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PRECISION = 12
# `cubicloop verify --suite all` checks 50 cells x 20 lift pairs.
ADMISSIBILITY_CELLS = 50
ADMISSIBILITY_SAMPLES = 20
CH_SAMPLES = 200
# Verdicts every one of the 243 unit classes gives.
EXPONENT = 3
NUCLEUS_ORDER = 9
NONASSOC_TRIPLES = 8_188_128

REFERENCE = Path(__file__).with_name("reference_circ.hex")


class WrongOutput(Exception):
    """An op returned a result that disagrees with the reference."""


def load_reference(path: Path) -> np.ndarray:
    """The 243x243 composition table, one row per line, one byte per cell."""
    rows = [bytes.fromhex(line) for line in path.read_text().split()]
    circ = np.array([list(row) for row in rows], dtype=np.int16)
    if circ.shape != (243, 243):
        raise ValueError(f"{path}: expected a 243x243 table, got {circ.shape}")
    return circ


@dataclass
class State:
    M: object  # cubicloop.moufang
    cli: object  # cubicloop.cli
    table: object  # reference ClassTable
    unit: int  # class U0, the CLI's loop unit
    tmp: Path  # export target of the table workload


def setup(reference: Path, out_dir: Path) -> State:
    """Import the program, fill its lazy class caches and load the reference."""
    import cubicloop.cli as cli
    import cubicloop.moufang as M

    M.class_params()
    M.class_forms()
    M._form_index()
    table = M.ClassTable(load_reference(reference), PRECISION, 0)
    return State(M, cli, table, M.named_class(M.U0), out_dir / "export.json")


def _first_difference(got: np.ndarray, want: np.ndarray) -> str:
    i, j = np.argwhere(got != want)[0]
    return f"cell ({i},{j}) is {got[i, j]}, reference says {want[i, j]}"


# -- table: the `cubicloop table` path ----------------------------------------


def table_op(st: State, s: int):
    t = st.M.build_class_table(PRECISION, admissibility_cells=0, seed=s)
    l = st.M.loop_from(t, st.unit)
    st.cli.export_table(t, l, st.cli.Config(precision=PRECISION, seed=s, out=str(st.tmp)))
    return t, l


def table_check(st: State, s: int, out) -> dict[str, float]:
    t, l = out
    if not np.array_equal(t.circ, st.table.circ):
        raise WrongOutput(f"built table: {_first_difference(t.circ, st.table.circ)}")
    size = st.tmp.stat().st_size
    with open(st.tmp) as fh:
        doc = json.load(fh)
    if doc["circ"] != t.circ.tolist() or doc["mul"] != l.mul.tolist():
        raise WrongOutput("exported JSON does not reload equal to the built tables")
    return {"cli.export_table.bytes": size}


# -- admissibility: the sampled check of `cubicloop verify --suite all` --------


def admissibility_op(st: State, s: int):
    return st.M.check_admissibility(st.table, ADMISSIBILITY_CELLS, ADMISSIBILITY_SAMPLES, s)


def admissibility_check(st: State, s: int, out) -> dict[str, float]:
    passes, _ = out
    if passes != ADMISSIBILITY_CELLS * ADMISSIBILITY_SAMPLES:
        raise WrongOutput(f"{passes} admissibility compositions passed")
    return {}


# -- verify: the L4 suite for one unit class ----------------------------------


def verify_op(st: State, s: int):
    M, t = st.M, st.table
    u = s % M.N_CLASSES
    l = M.loop_from(t, u)
    reports = [M.verify_quasigroup(t), *M.verify_cml(l)]
    e = M.exponent(l)
    nuc = M.nucleus(l)
    nonassoc = int(M.associator_mask(l).sum())
    witnesses = M.find_nonassoc(l)
    reports.append(M.ch_check(t, CH_SAMPLES, s))
    return l, reports, e, nuc, nonassoc, witnesses


def verify_check(st: State, s: int, out) -> dict[str, float]:
    l, reports, e, nuc, nonassoc, witnesses = out
    failed = [r.name for r in reports if not r.passed]
    if failed:
        raise WrongOutput(f"unit {l.unit}: checks failed: {failed}")
    verdicts = (e, len(nuc), nonassoc, bool(witnesses))
    if verdicts != (EXPONENT, NUCLEUS_ORDER, NONASSOC_TRIPLES, True):
        raise WrongOutput(
            f"unit {l.unit}: (exponent, |nucleus|, non-associative, witness) = {verdicts}"
        )
    # The named triple is non-associative in only 162 of the 243 loops.
    if l.unit == st.unit:
        _, left, right = st.M.witness_sides(st.table, l)
        if left == right:
            raise WrongOutput("named witness triple associates in the U0 loop")
    return {"moufang.checks": sum(r.checks for r in reports)}


# name: (op, gate, calibration kernel whose code is most like the op's)
WORKLOADS = {
    "table": (table_op, table_check, "python"),
    "admissibility": (admissibility_op, admissibility_check, "python"),
    "verify": (verify_op, verify_check, "numpy"),
}
