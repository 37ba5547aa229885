"""Seeded random generators shared by the selftest suites and the tests.

Everything takes an explicit ``random.Random`` so results are reproducible
from a single seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .abelian import ModuleElement, Monomial
from .rat_ideals import PrimitiveLabel
from .symplectic import SurfaceSignature, is_central
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


def random_monomial(rng: random.Random, n: int, radius: int = 5) -> Monomial:
    return Monomial(tuple(rng.randint(-radius, radius) for _ in range(n)))


def random_element(
    rng: random.Random,
    n: int,
    ring: str = "Z",
    max_terms: int = 4,
    radius: int = 5,
    coef_bound: int = 9,
) -> ModuleElement:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coef = (
            random_nonzero_int(rng, coef_bound)
            if ring == "Z"
            else random_fraction(rng, coef_bound)
        )
        terms.append((random_monomial(rng, n, radius), coef))
    return ModuleElement(ring, terms)


def random_central_monomial(
    rng: random.Random, sig: SurfaceSignature, radius: int = 4
) -> Monomial:
    exps = [0] * sig.n
    for j in range(2 * sig.genus, sig.n):
        exps[j] = rng.randint(-radius, radius)
    return Monomial(exps)


def random_noncentral_monomial(
    rng: random.Random, sig: SurfaceSignature, radius: int = 4
) -> Monomial:
    while True:
        mono = random_monomial(rng, sig.n, radius)
        if not is_central(sig, mono):
            return mono


def random_label(
    rng: random.Random,
    sig: SurfaceSignature,
    max_pairs: int = 3,
    radius: int = 3,
    coef_bound: int = 5,
) -> PrimitiveLabel:
    """A canonical label built from random central data.

    On a closed surface the center is trivial, so the only label is the
    trivial one.
    """
    count = rng.randint(1, max_pairs)
    seen: set[tuple[int, ...]] = set()
    pairs = []
    for _ in range(count):
        mono = random_central_monomial(rng, sig, radius)
        if mono in seen:
            continue
        seen.add(mono)
        pairs.append((mono, random_fraction(rng, coef_bound)))
    if not pairs:
        pairs = [(Monomial.identity(sig.n), Fraction(1))]
    return PrimitiveLabel.from_pairs(sig, pairs)
