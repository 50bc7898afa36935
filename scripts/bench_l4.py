#!/usr/bin/env python3
"""Median wall time per call of each L4 loop check.

Builds the table once at precision 12, then for `--units` unit classes in
turn makes the loop and times one call of every L4 function, in the order
of the benchmark's `verify` op; `suite` is the sum of them per unit.
Prints one JSON object: the medians in seconds, by function name.

Usage:
    python3 scripts/bench_l4.py --units 20 --seed 0
"""

import argparse
import json
import statistics
import sys
from time import perf_counter

import cubicloop.moufang as M

CH_SAMPLES = 200


def time_unit(t, unit: int, seed: int) -> dict[str, float]:
    """Seconds of one call of each function for the loop with `unit`."""
    times = {}

    def timed(name, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        times[name] = perf_counter() - t0
        return out

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--units", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    t = M.build_class_table(12, seed=0, admissibility_cells=0)
    runs = [
        time_unit(t, (args.seed + k) % M.N_CLASSES, args.seed + k) for k in range(args.units)
    ]
    medians = {name: round(statistics.median(r[name] for r in runs), 5) for name in runs[0]}
    print(json.dumps({"units": args.units, "seed": args.seed, "median_s": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
