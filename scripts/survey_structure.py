#!/usr/bin/env python3
"""Survey the internal structure of the 243-class loop.

Reports the subloop sizes generated by random elements, pairs and triples,
and the loop's figures: element orders, nucleus, nucleus cosets and
associator values.  Exits 1, naming each figure that differs from the loop's.

Usage:
    python3 scripts/survey_structure.py --samples 200 --seed 0
"""

import argparse
import sys
from collections import Counter

import numpy as np

import cubicloop.moufang as M
from cubicloop.surface import _draw


def subloop_size_distribution(loop, seed: int, samples: int, gens: int) -> Counter:
    draws = _draw(M.N_CLASSES, 4, seed, gens, np.arange(samples)[:, None], range(gens))
    return Counter(len(M.subloop(loop, set(g))) for g in draws.tolist())


def associator_stats(loop) -> tuple[int, Counter]:
    """Count non-associative triples and the distribution of associators
    a(x,y,z) = ((xy)z) / (x(yz))."""
    values = Counter()
    total = 0
    for left, right in M._associator_sides(loop):
        total += int(np.count_nonzero(left != right))
        assoc = loop.mul[left, loop.inv[right]]
        values.update(np.unique(assoc).tolist())
    return total, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--precision", type=int, default=12)
    args = parser.parse_args(argv)

    table = M.build_class_table(args.precision, admissibility_cells=0)
    loop = M.loop_from(table, M.named_class(M.U0))

    for gens in (1, 2, 3):
        dist = subloop_size_distribution(loop, args.seed, args.samples, gens)
        print(f"subloop sizes from {gens} random generators:", dict(sorted(dist.items())))

    total, values = associator_stats(loop)
    print(f"non-associative triples: {total} of {M.N_CLASSES**3}")

    members = sorted(M.nucleus(loop))
    print(f"nucleus: {members}")
    cosets = {tuple(sorted(int(loop.mul[x, a]) for a in members)) for x in range(M.N_CLASSES)}

    # the figures of the loop of order 3^5 with exponent 3 and nucleus of order 9
    orders = dict(sorted(Counter(M.element_orders(loop)).items()))
    figures = [
        ("element orders", orders, {1: 1, 3: 242}),
        ("nucleus order", len(members), 9),
        ("nucleus cosets (count, size)", (len(cosets), *{len(c) for c in cosets}), (27, 9)),
        ("distinct associator values", len(values), 3),
    ]
    for name, found, want in figures:
        print(f"{name}: {found}")
        if found != want:
            print(f"figure differs: {name}, expected {want}", file=sys.stderr)
    return int(any(found != want for _, found, want in figures))


if __name__ == "__main__":
    sys.exit(main())
