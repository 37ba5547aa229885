"""Geometric integer submodules and their ideal criteria.

A geometric submodule of the integer monomial module is generated by
integer multiples of monomials, so it is determined by the function
sending each exponent tuple to the least positive multiplier it admits
(0 when no multiple lies in the submodule).  Two rule families are
implemented: the gcd rule with a finite exception set, which is always a
Lie ideal, and arbitrary finite tables over an exponent box, which may or
may not be.  The ideal criteria are checked by seeded sampling or
exhaustively over a box and report the first violating pair found.

A check visits each first point v with its partners, the whole box when
exhaustive and one drawn w per sample, so what depends on v alone is
computed once per v.  Sampled coordinates are drawn exactly as
``Random(seed).randrange(-r, r + 1)`` would draw them, and both sweeps and
samples are capped at MAX_EXHAUSTIVE_PAIRS pairs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import add, mul
from typing import Iterable, Iterator, Optional, Sequence

from .abelian import ModuleElement, Monomial
from .symplectic import SurfaceSignature, _pairing_row
from .words import _check_integer

MAX_EXHAUSTIVE_PAIRS = 10_000_000
"""The most pairs a criterion check may visit: (2r+1)^(2n) in a sweep, one per sample."""

MAX_TABLE_ENTRIES = 100_000
"""The most entries a table rule may hold, (2r+1)^n."""

MAX_FAMILY_TUPLES = 100_000
"""The most exception tuples a gcd family may hold in all, count*|K0| + count*(count-1)/2."""


def _exponent_tuple(t: Iterable[int]) -> tuple[int, ...]:
    """Outside exponent data as a plain tuple; non-integers raise TypeError."""
    return tuple(Monomial(t))


def divides(d: int, x: int) -> bool:
    """Divisibility with the convention that only 0 is divisible by 0."""
    return x == 0 if d == 0 else x % d == 0


class GeometricSubmodule:
    """Base for monomial-multiple submodules; subclasses supply the rule."""

    n: int

    def min_multiple(self, x: tuple[int, ...]) -> int:
        """Least positive m with m*x in the submodule, or 0 if none exists.

        ``x`` is an exponent tuple: a Monomial or a plain tuple of ints.
        """
        raise NotImplementedError

    def in_domain(self, x: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def contains(self, u: ModuleElement) -> bool:
        """Membership: every coefficient divisible by the rule at its monomial."""
        if u.ring != "Z":
            raise ValueError("geometric submodules live in the integer module")
        for mono, coef in u.terms():
            if not divides(self.min_multiple(mono), coef):
                return False
        return True


class GcdSubmodule(GeometricSubmodule):
    """Rule: 1 on a finite exception set, gcd of the exponent tuple elsewhere.

    The gcd of the all-zero tuple is 0, so the identity monomial has no
    multiple in the submodule unless the zero tuple sits in the exception
    set (in which case the rule value there is 1).
    """

    __slots__ = ("n", "exceptions")

    def __init__(self, n: int, exceptions: Iterable[tuple[int, ...]] = ()):
        _check_integer(n, "tuple length")
        if n < 1:
            raise ValueError(f"tuple length must be >= 1, got {n}")
        exceptions = frozenset(map(_exponent_tuple, exceptions))
        for t in exceptions:
            if len(t) != n:
                raise ValueError(f"exception tuple {t} has length != {n}")
        self.n = n
        self.exceptions = exceptions

    def min_multiple(self, x: tuple[int, ...]) -> int:
        if len(x) != self.n:
            raise ValueError(f"monomial length {len(x)} != {self.n}")
        if x in self.exceptions:
            return 1
        return math.gcd(*x)

    def in_domain(self, x: tuple[int, ...]) -> bool:
        return len(x) == self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, GcdSubmodule):
            return NotImplemented
        return self.n == other.n and self.exceptions == other.exceptions

    def __hash__(self) -> int:
        return hash((self.n, self.exceptions))

    def __repr__(self) -> str:
        k = sorted(self.exceptions)
        return f"GcdSubmodule(n={self.n}, exceptions={k!r})"


class TableSubmodule(GeometricSubmodule):
    """Rule given by an explicit finite table over the box [-radius, radius]^n.

    Evaluation outside the box raises: the ideal criteria quantify over the
    whole monomial group, so sampled checking has to be explicit about the
    domain it actually covered.
    """

    __slots__ = ("n", "radius", "values")

    def __init__(
        self,
        n: int,
        radius: int,
        values: dict[tuple[int, ...], int] | None = None,
        default: int = 1,
    ):
        _check_integer(radius, "radius")
        _check_integer(default, "rule value")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if default < 0:
            raise ValueError("rule values must be nonnegative")
        side = 2 * radius + 1
        # For side >= 2 the power passes the cap by exponent cap.bit_length(),
        # so a huge n costs no huge power.
        if side ** min(n, MAX_TABLE_ENTRIES.bit_length()) > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"a table of radius {radius} on n = {n} has {side}^{n} entries, "
                f"more than the cap of {MAX_TABLE_ENTRIES}"
            )
        self.n = n
        self.radius = radius
        table: dict[tuple[int, ...], int] = {}
        for t in itertools.product(range(-radius, radius + 1), repeat=n):
            table[t] = default
        for t, a in (values or {}).items():
            t = _exponent_tuple(t)
            if len(t) != n or max(map(abs, t), default=0) > radius:
                raise ValueError(f"table key {t} outside the box")
            _check_integer(a, "rule value")
            if a < 0:
                raise ValueError("rule values must be nonnegative")
            table[t] = a
        self.values = table

    def min_multiple(self, x: tuple[int, ...]) -> int:
        # The table holds exactly the tuples of the box.
        a = self.values.get(x)
        if a is None:
            raise ValueError(f"monomial {tuple(x)} outside the table box (radius {self.radius})")
        return a

    def in_domain(self, x: tuple[int, ...]) -> bool:
        return x in self.values

    def __repr__(self) -> str:
        return f"TableSubmodule(n={self.n}, radius={self.radius})"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampled or exhaustive criterion check."""

    ok: bool
    counterexample: Optional[dict]
    checked: int
    skipped: int

    def __bool__(self) -> bool:
        return self.ok


def _draws(rng: random.Random, radius: int) -> Iterator[int]:
    # rng.randrange(-radius, radius + 1), draw for draw: CPython draws
    # width.bit_length() bits and redraws while the value is >= width.
    width = 2 * radius + 1
    bits = map(rng.getrandbits, itertools.repeat(width.bit_length()))
    return (x - radius for x in bits if x < width)


def _pair_stream(
    n: int, radius: int, samples: Optional[int], seed: Optional[int]
) -> Iterator[tuple[tuple[int, ...], Sequence[tuple[int, ...]]]]:
    # Each v with its partners: the whole box when exhaustive, one w per
    # draw when sampled.  Plain int tuples of length n by construction: the
    # checks need not validate them again.
    if radius < 0:
        raise ValueError(f"box radius must be nonnegative, got {radius}")
    if samples is None:
        pairs = (2 * radius + 1) ** (2 * n)
        if pairs > MAX_EXHAUSTIVE_PAIRS:
            raise ValueError(
                f"an exhaustive sweep of radius {radius} on n = {n} visits {pairs} pairs, "
                f"more than the cap of {MAX_EXHAUSTIVE_PAIRS}; sample instead"
            )
        box = list(itertools.product(range(-radius, radius + 1), repeat=n))
        for v in box:
            yield v, box
        return
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if samples > MAX_EXHAUSTIVE_PAIRS:
        raise ValueError(
            f"{samples} samples exceed the cap of {MAX_EXHAUSTIVE_PAIRS} pairs per check"
        )
    if seed is None:
        raise ValueError("sampled checks require an explicit seed")
    draws = _draws(random.Random(seed), radius)
    for _ in range(samples):
        v = tuple(itertools.islice(draws, n))
        yield v, (tuple(itertools.islice(draws, n)),)


def bracket_closure_check(
    sig: SurfaceSignature,
    sub: GeometricSubmodule,
    radius: int,
    samples: Optional[int] = 10_000,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check the bracket-closure divisibility rule(v*w) | <v,w> * rule(v).

    Pairs (v, w) are drawn from the box [-radius, radius]^n (exhaustively
    when ``samples`` is None); pairs whose product leaves the rule's domain
    are skipped and counted.  The first violation is reported.  A negative
    ``radius`` or ``samples``, or more than MAX_EXHAUSTIVE_PAIRS pairs
    (exhaustive) or samples, raises ValueError.

    The domain test, the rule and the pairing row of ``v`` are computed
    once per ``v``; a pair costs its product, one dot product with that
    row, the lookups and the divisibility test.
    """
    in_domain, rule = sub.in_domain, sub.min_multiple
    checked = skipped = 0
    for v, partners in _pair_stream(sig.n, radius, samples, seed):
        if not in_domain(v):
            skipped += len(partners)
            continue
        a_v = rule(v)
        row = _pairing_row(sig.genus, v)
        for w in partners:
            product = tuple(map(add, v, w))
            if not (in_domain(w) and in_domain(product)):
                skipped += 1
                continue
            checked += 1
            pairing = sum(map(mul, row, w))
            a_vw = rule(product)
            if not divides(a_vw, pairing * a_v):
                cx = {"v": list(v), "w": list(w), "pairing": pairing,
                      "rule_v": a_v, "rule_vw": a_vw}
                return CheckReport(False, cx, checked, skipped)
    return CheckReport(True, None, checked, skipped)


def gcd_divisibility_check(
    sig: SurfaceSignature,
    sub: GeometricSubmodule,
    radius: int,
    samples: Optional[int] = 10_000,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check rule(k) | rule(i) * gcd_t(gcd(k-pair_t) * gcd(i-pair_t)).

    The same sampling conventions and limits as
    :func:`bracket_closure_check`; no product point is needed, so only
    pairs outside the domain are skipped.  The domain test, the rule and
    the pair gcds of ``k`` are computed once per ``k``.  With genus 0
    there are no pairs and the factor is gcd() = 0.
    """
    in_domain, rule, g2 = sub.in_domain, sub.min_multiple, 2 * sig.genus
    checked = skipped = 0
    for k, partners in _pair_stream(sig.n, radius, samples, seed):
        if not in_domain(k):
            skipped += len(partners)
            continue
        a_k = rule(k)
        k_gcds = list(map(math.gcd, k[0:g2:2], k[1:g2:2]))
        for i in partners:
            if not in_domain(i):
                skipped += 1
                continue
            checked += 1
            a_i = rule(i)
            factor = math.gcd(*map(mul, k_gcds, map(math.gcd, i[0:g2:2], i[1:g2:2])))
            if not divides(a_k, a_i * factor):
                cx = {"k": list(k), "i": list(i), "rule_k": a_k, "rule_i": a_i,
                      "gcd_factor": factor}
                return CheckReport(False, cx, checked, skipped)
    return CheckReport(True, None, checked, skipped)


def _eligible_tuples(n: int, excluded: frozenset[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    # Tuples ordered by (max |entry|, then lexicographic), gcd > 1 only.
    radius = 1
    while True:
        for t in itertools.product(range(-radius, radius + 1), repeat=n):
            if max(map(abs, t)) != radius:
                continue
            if math.gcd(*t) > 1 and t not in excluded:
                yield t
        radius += 1


def gcd_submodule_family(
    k0: Iterable[tuple[int, ...]],
    count: int,
    n: Optional[int] = None,
) -> list[GcdSubmodule]:
    """A strictly growing family of gcd-rule submodules containing k0.

    The j-th member adds the first j tuples outside k0 with gcd > 1, in the
    deterministic (max |entry|, lexicographic) enumeration, so consecutive
    members differ exactly at the tuple just added.  A family holding more
    than MAX_FAMILY_TUPLES tuples in all raises ValueError before any member
    is built.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    k0 = [_exponent_tuple(t) for t in k0]
    if n is None:
        if not k0:
            raise ValueError("n is required when the base exception set is empty")
        n = len(k0[0])
    base = frozenset(k0)
    tuples = count * len(base) + count * (count - 1) // 2
    if tuples > MAX_FAMILY_TUPLES:
        raise ValueError(
            f"a family of {count} members holds {tuples} exception tuples, "
            f"more than the cap of {MAX_FAMILY_TUPLES}"
        )
    family = [GcdSubmodule(n, base)]
    added: list[tuple[int, ...]] = []
    stream = _eligible_tuples(n, base)
    for _ in range(count - 1):
        added.append(next(stream))
        family.append(GcdSubmodule(n, base | set(added)))
    return family
