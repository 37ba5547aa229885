"""Seeded raw-input generator for the benchmark workloads.

Everything here is plain tuples, ints, strings and ``Fraction``s; nothing
imports ``goldmanab``, so refactors of the package (its own samplers
included) cannot shift the inputs a seed produces.

Each workload repeats a fixed block of op kinds and size strata in a
shuffled order.  Where in its stratum a block's sizes sit follows a fixed
sequence, so every run sees the same sizes; the seed draws the contents and
the order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

GOLDEN = (math.sqrt(5) - 1) / 2


class Draw:
    """A seeded source of raw inputs; the same (workload, seed) gives the same stream."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"goldmanab-bench:{workload}:{seed}")
        self.blocks = 0
        self.offset = 0.5

    def block(self, kinds: list) -> list:
        """One shuffled block of the fixed op schedule.

        Also sets ``offset`` in [0, 1), where in its size stratum every op of
        the block sits: a low-discrepancy sequence over the blocks, the same
        for every seed.
        """
        self.offset = (0.5 + self.blocks * GOLDEN) % 1
        self.blocks += 1
        out = list(kinds)
        self.rng.shuffle(out)
        return out

    @staticmethod
    def log_uniform(q: float, lo: int, hi: int) -> int:
        return max(lo, min(hi, int(round(math.exp(math.log(lo) + q * (math.log(hi) - math.log(lo)))))))

    def nonzero(self, bound: int) -> int:
        value = self.rng.randint(1, bound)
        return value if self.rng.random() < 0.5 else -value

    def fraction(self, bound: int = 9) -> Fraction:
        return Fraction(self.nonzero(bound), self.rng.randint(1, bound))

    def exps(self, n: int, radius: int) -> tuple[int, ...]:
        return tuple(self.rng.randint(-radius, radius) for _ in range(n))

    def noncentral_exps(self, n: int, genus: int, radius: int) -> tuple[int, ...]:
        e = list(self.exps(n, radius))
        if not any(e[: 2 * genus]):
            e[self.rng.randrange(2 * genus)] = self.nonzero(radius)
        return tuple(e)

    def word_runs(self, n: int, runs: int, max_exp: int = 3, c: int | None = None) -> list[tuple[int, int]]:
        """``runs`` letters with adjacent generators distinct, so nothing cancels.

        c-letters (when ``c`` is given) are often signed powers of two, the
        exponents the chain quotients are sensitive to.
        """
        out = []
        prev = 0
        for _ in range(runs):
            if prev == 0 or n == 1:
                gen = self.rng.randint(1, n)
            else:
                gen = self.rng.randint(1, n - 1)
                gen += gen >= prev
            if gen == c and self.rng.random() < 0.4:
                exp = (1 << self.rng.randint(0, 3)) * (1 if self.rng.random() < 0.5 else -1)
            else:
                exp = self.nonzero(max_exp)
            out.append((gen, exp))
            prev = gen
        return out

    def element_terms(
        self, n: int, terms: int, radius: int, rational: bool = True
    ) -> list[tuple[tuple[int, ...], Fraction | int]]:
        return [
            (self.exps(n, radius), self.fraction() if rational else self.nonzero(9))
            for _ in range(terms)
        ]


def format_runs(raw: list[tuple[int, int]]) -> str:
    """Render raw runs in the word grammar ``a<k>`` / ``a<k>^<e>``."""
    return " ".join(f"a{g}" if e == 1 else f"a{g}^{e}" for g, e in raw)


def inverse_runs(raw: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(g, -e) for g, e in reversed(raw)]
