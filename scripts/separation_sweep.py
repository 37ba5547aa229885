#!/usr/bin/env python3
"""Measure where random non-conjugate word pairs separate along the chain.

For each pair the theory predicts separation once 2^(level-1) exceeds the
total absolute exponent of the distinguished generator in both words; the
sweep tabulates how tight that bound is in practice.  It also checks the
proved bound T = m.bit_length() + 1 (0 when m = 0), m being the largest
absolute c-exponent in the two cyclic cores, and exits 1 with
BOUND VIOLATED when a pair separates above either bound.
"""

import argparse
import random
import sys
from collections import Counter

from goldmanab.chain import separation_level, total_c_exponent
from goldmanab.sampling import random_chain_word
from goldmanab.words import are_conjugate, cyclic_reduce


def ordinary_exponent(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--alphabet", type=int, default=3)
    parser.add_argument("--c", type=int, default=1)
    parser.add_argument("--max-budget", type=int, default=32)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    slack = Counter()
    done = 0
    while done < args.pairs:
        a = random_chain_word(rng, args.alphabet, args.c, 5, ordinary_exponent)
        b = random_chain_word(rng, args.alphabet, args.c, 5, ordinary_exponent)
        budget = total_c_exponent(a, args.c) + total_c_exponent(b, args.c)
        if budget > args.max_budget or are_conjugate(a, b):
            continue
        done += 1
        bound = (2 * budget).bit_length()
        level = separation_level(a, b, args.c, bound)
        m = max((abs(exp) for w in (a, b) for gen, exp in cyclic_reduce(w)[0].letters
                 if gen == args.c), default=0)
        core_bound = m.bit_length() + 1 if m else 0
        if level is None or level > core_bound:
            print(f"BOUND VIOLATED: a={a} b={b} budget={budget} core bound={core_bound}")
            return 1
        slack[bound - level] += 1

    print(f"{args.pairs} non-conjugate pairs, c = a{args.c}, alphabet size {args.alphabet}")
    print("slack = (guaranteed bound) - (observed least separating level)")
    for gap in sorted(slack):
        print(f"  slack {gap:2d}: {slack[gap]:6d} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
