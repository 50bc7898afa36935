#!/usr/bin/env python3
"""Survey the internal structure of the 243-class loop.

Reports the order statistics, the subloop sizes generated by random pairs
and triples, the associator distribution, and the nucleus cosets.

Usage:
    python3 scripts/survey_structure.py --samples 200 --seed 0
"""

import argparse
import random
import sys
from collections import Counter

import numpy as np

import cubicloop.moufang as M


def subloop_size_distribution(loop, rng, samples: int, gens: int) -> Counter:
    sizes = Counter()
    for _ in range(samples):
        g = {rng.randrange(M.N_CLASSES) for _ in range(gens)}
        sizes[len(M.subloop(loop, g))] += 1
    return sizes


def associator_stats(loop) -> tuple[int, Counter]:
    """Count non-associative triples and the distribution of associators
    a(x,y,z) = ((xy)z) / (x(yz))."""
    mul, inv = loop.mul, loop.inv
    values = Counter()
    total = 0
    for x in range(M.N_CLASSES):
        left = mul[mul[x], :]
        right = mul[x][mul]
        bad = left != right
        total += int(bad.sum())
        assoc = mul[left, inv[right]]
        values.update(np.unique(assoc, return_counts=True)[0].tolist())
    return total, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--precision", type=int, default=12)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)

    table = M.build_class_table(args.precision, admissibility_cells=0)
    loop = M.loop_from(table, M.named_class(M.U0))

    print("element orders:", dict(sorted(Counter(M.element_orders(loop)).items())))
    for gens in (1, 2, 3):
        dist = subloop_size_distribution(loop, rng, args.samples, gens)
        print(f"subloop sizes from {gens} random generators:", dict(sorted(dist.items())))

    total, values = associator_stats(loop)
    print(f"non-associative triples: {total} of {M.N_CLASSES**3}")
    print(f"distinct associator values: {len(values)}")

    members = sorted(M.nucleus(loop))
    print(f"nucleus ({len(members)}): {members}")
    cosets = {tuple(sorted(int(loop.mul[x, a]) for a in members)) for x in range(M.N_CLASSES)}
    print(f"nucleus cosets: {len(cosets)} of size {len(members)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
