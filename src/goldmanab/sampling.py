"""Seeded random generators shared by the selftest suites and the tests.

Everything takes an explicit ``random.Random`` so results are reproducible
from a single seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .abelian import ModuleElement, Monomial
from .rat_ideals import PrimitiveLabel
from .symplectic import SurfaceSignature, center_generators, is_central
from .words import Word, reduce_word


def random_nonzero_int(rng: random.Random, bound: int) -> int:
    value = rng.randint(1, bound)
    return value if rng.random() < 0.5 else -value


def random_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(random_nonzero_int(rng, bound), rng.randint(1, bound))


def random_word(
    rng: random.Random,
    n: int,
    max_runs: int = 6,
    max_exp: int = 3,
) -> Word:
    raw = [
        (rng.randint(1, n), random_nonzero_int(rng, max_exp))
        for _ in range(rng.randint(0, max_runs))
    ]
    return reduce_word(raw, n)


def random_chain_word(
    rng: random.Random, n: int, c: int, max_runs: int, exponent: Callable[[random.Random], int]
) -> Word:
    """A word for the chain quotients: runs of a_c often carry ±2^k, k <= 4.

    ``exponent(rng)`` draws every other exponent.
    """
    raw = []
    for _ in range(rng.randint(0, max_runs)):
        gen = rng.randint(1, n)
        if gen == c and rng.random() < 0.4:
            exp = (1 if rng.random() < 0.5 else -1) * (1 << rng.randint(0, 4))
        else:
            exp = exponent(rng)
        raw.append((gen, exp))
    return reduce_word(raw, n)


def random_monomial(rng: random.Random, n: int, radius: int = 5) -> Monomial:
    return Monomial(tuple(rng.randint(-radius, radius) for _ in range(n)))


def random_element(
    rng: random.Random,
    n: int,
    ring: str = "Z",
    max_terms: int = 4,
    radius: int = 5,
) -> ModuleElement:
    """Up to ``max_terms`` terms; numerators and denominators are at most 9."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coef = random_nonzero_int(rng, 9) if ring == "Z" else random_fraction(rng, 9)
        terms.append((random_monomial(rng, n, radius), coef))
    return ModuleElement(ring, terms)


def random_central_monomial(
    rng: random.Random, sig: SurfaceSignature, radius: int = 4
) -> Monomial:
    exps = [0] * sig.n
    for gen in center_generators(sig):
        exps[gen - 1] = rng.randint(-radius, radius)
    return Monomial(exps)


def random_noncentral_monomial(rng: random.Random, sig: SurfaceSignature) -> Monomial:
    """Exponents in [-4, 4], redrawn until the monomial is not central."""
    while True:
        mono = random_monomial(rng, sig.n, 4)
        if not is_central(sig, mono):
            return mono


def random_label(rng: random.Random, sig: SurfaceSignature) -> PrimitiveLabel:
    """A canonical label of 1..3 distinct central monomials, exponents in [-3, 3].

    The weights are random fractions with numerator and denominator up to 5.
    On a closed surface the center is trivial, so the only label is the
    trivial one.
    """
    seen: set[tuple[int, ...]] = set()
    pairs = []
    for _ in range(rng.randint(1, 3)):
        mono = random_central_monomial(rng, sig, 3)
        if mono in seen:
            continue
        seen.add(mono)
        pairs.append((mono, random_fraction(rng, 5)))
    return PrimitiveLabel.from_pairs(sig, pairs)
