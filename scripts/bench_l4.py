#!/usr/bin/env python3
"""Median wall time per call of each L4 loop check, of the table build, of
the JSON export and of an admissibility check.

Builds the table once at precision 12, then for `--units` unit classes in
turn makes the loop and times one call of every L4 function, in the order
of the benchmark's `verify` op; `suite` is the sum of them per unit.  For
each unit it also times one cold `build_class_table(12)` with the unit's
seed (L2), one `cli.export_table` of that table and its loop to a JSON
file in a temporary directory (L5), as the benchmark's `table` op does,
and one `check_admissibility` of 50 cells x 20 lift pairs with the unit's
seed (L3), as the benchmark's `admissibility` op does.
Prints one JSON object: the medians in seconds, by function name.

Usage:
    python3 scripts/bench_l4.py --units 20 --seed 0
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import cubicloop.cli as cli
import cubicloop.moufang as M

PRECISION = 12
CH_SAMPLES = 200
ADMISSIBILITY = (50, 20)  # cells, lift pairs per cell


def _timer(times: dict[str, float]):
    def timed(name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        times[name] = perf_counter() - t0
        return out

    return timed


def time_unit(t, unit: int, seed: int) -> dict[str, float]:
    """Seconds of one call of each function for the loop with `unit`."""
    times = {}
    timed = _timer(times)
    l = timed("loop_from", M.loop_from, t, unit)
    timed("verify_quasigroup", M.verify_quasigroup, t)
    timed("verify_cml", M.verify_cml, l)
    timed("exponent", M.exponent, l)
    timed("nucleus", M.nucleus, l)
    timed("associator_mask", M.associator_mask, l)
    timed("find_nonassoc", M.find_nonassoc, l)
    timed("ch_check", M.ch_check, t, CH_SAMPLES, seed)
    times["suite"] = sum(times.values())
    return times


def time_table(unit: int, seed: int, out: Path) -> dict[str, float]:
    """Seconds of one table build with `seed`, one JSON export of it with its
    loop with `unit` and one admissibility check of it with `seed`."""
    times = {}
    timed = _timer(times)
    t = timed(
        "build_class_table", M.build_class_table, PRECISION, seed=seed, admissibility_cells=0
    )
    cfg = cli.Config(precision=PRECISION, seed=seed, out=str(out))
    timed("export_table", cli.export_table, t, M.loop_from(t, unit), cfg)
    timed("check_admissibility", M.check_admissibility, t, *ADMISSIBILITY, seed)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--units", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    t = M.build_class_table(PRECISION, seed=0, admissibility_cells=0)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.units):
            unit, seed = (args.seed + k) % M.N_CLASSES, args.seed + k
            runs.append(time_unit(t, unit, seed) | time_table(unit, seed, Path(tmp) / "t.json"))
    medians = {name: round(statistics.median(r[name] for r in runs), 5) for name in runs[0]}
    print(json.dumps({"units": args.units, "seed": args.seed, "median_s": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
