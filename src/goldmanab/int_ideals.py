"""Geometric integer submodules and their ideal criteria.

A geometric submodule of the integer monomial module is generated by
integer multiples of monomials, so it is determined by the function
sending each exponent tuple to the least positive multiplier it admits
(0 when no multiple lies in the submodule).  Two rule families are
implemented: the gcd rule with a finite exception set, which is always a
Lie ideal, and arbitrary finite tables over an exponent box, which may or
may not be.  The ideal criteria are checked by seeded sampling or
exhaustively over a box and report the first violating pair found.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .abelian import ModuleElement, Monomial
from .symplectic import SurfaceSignature, symplectic_product


def divides(d: int, x: int) -> bool:
    """Divisibility with the convention that only 0 is divisible by 0."""
    return x == 0 if d == 0 else x % d == 0


class GeometricSubmodule:
    """Base for monomial-multiple submodules; subclasses supply the rule."""

    n: int

    def min_multiple(self, x: Monomial) -> int:
        """Least positive m with m*x in the submodule, or 0 if none exists."""
        raise NotImplementedError

    def in_domain(self, x: Monomial) -> bool:
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
        exceptions = frozenset(tuple(int(e) for e in t) for t in exceptions)
        for t in exceptions:
            if len(t) != n:
                raise ValueError(f"exception tuple {t} has length != {n}")
        self.n = n
        self.exceptions = exceptions

    def min_multiple(self, x: Monomial) -> int:
        if len(x) != self.n:
            raise ValueError(f"monomial length {len(x)} != {self.n}")
        if x in self.exceptions:
            return 1
        return math.gcd(*x) if x else 0

    def in_domain(self, x: Monomial) -> bool:
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
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if default < 0:
            raise ValueError("rule values must be nonnegative")
        self.n = n
        self.radius = radius
        table: dict[tuple[int, ...], int] = {}
        for t in itertools.product(range(-radius, radius + 1), repeat=n):
            table[t] = default
        for t, a in (values or {}).items():
            t = tuple(int(e) for e in t)
            if len(t) != n or max(map(abs, t), default=0) > radius:
                raise ValueError(f"table key {t} outside the box")
            if a < 0:
                raise ValueError("rule values must be nonnegative")
            table[t] = int(a)
        self.values = table

    def min_multiple(self, x: Monomial) -> int:
        if not self.in_domain(x):
            raise ValueError(f"monomial {tuple(x)} outside the table box (radius {self.radius})")
        return self.values[x]

    def in_domain(self, x: Monomial) -> bool:
        return len(x) == self.n and max(map(abs, x), default=0) <= self.radius

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


def _box_monomials(n: int, radius: int) -> Iterator[Monomial]:
    for t in itertools.product(range(-radius, radius + 1), repeat=n):
        yield Monomial(t)


def _pair_stream(
    n: int, radius: int, samples: Optional[int], seed: Optional[int]
) -> Iterator[tuple[Monomial, Monomial]]:
    if samples is None:
        for v in _box_monomials(n, radius):
            for w in _box_monomials(n, radius):
                yield v, w
        return
    if seed is None:
        raise ValueError("sampled checks require an explicit seed")
    rng = random.Random(seed)
    for _ in range(samples):
        v = Monomial(tuple(rng.randint(-radius, radius) for _ in range(n)))
        w = Monomial(tuple(rng.randint(-radius, radius) for _ in range(n)))
        yield v, w


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
    are skipped and counted.  The first violation is reported.
    """
    checked = skipped = 0
    for v, w in _pair_stream(sig.n, radius, samples, seed):
        product = v * w
        if not (sub.in_domain(v) and sub.in_domain(w) and sub.in_domain(product)):
            skipped += 1
            continue
        checked += 1
        pairing = symplectic_product(sig, v, w)
        a_v = sub.min_multiple(v)
        a_vw = sub.min_multiple(product)
        if not divides(a_vw, pairing * a_v):
            return CheckReport(
                False,
                {
                    "v": list(v),
                    "w": list(w),
                    "pairing": pairing,
                    "rule_v": a_v,
                    "rule_vw": a_vw,
                },
                checked,
                skipped,
            )
    return CheckReport(True, None, checked, skipped)


def _paired_gcd(sig: SurfaceSignature, k: Monomial, i: Monomial) -> int:
    # gcd over the symplectic pairs of gcd(k-pair) * gcd(i-pair); 0 when g = 0.
    factors = []
    for t in range(sig.genus):
        gk = math.gcd(k[2 * t], k[2 * t + 1])
        gi = math.gcd(i[2 * t], i[2 * t + 1])
        factors.append(gk * gi)
    return math.gcd(*factors) if factors else 0


def gcd_divisibility_check(
    sig: SurfaceSignature,
    sub: GeometricSubmodule,
    radius: int,
    samples: Optional[int] = 10_000,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check rule(k) | rule(i) * gcd_t(gcd(k-pair_t) * gcd(i-pair_t)).

    The same sampling conventions as :func:`bracket_closure_check`; no
    product point is needed, so only pairs outside the domain are skipped.
    """
    checked = skipped = 0
    for k, i in _pair_stream(sig.n, radius, samples, seed):
        if not (sub.in_domain(k) and sub.in_domain(i)):
            skipped += 1
            continue
        checked += 1
        a_k = sub.min_multiple(k)
        a_i = sub.min_multiple(i)
        factor = _paired_gcd(sig, k, i)
        if not divides(a_k, a_i * factor):
            return CheckReport(
                False,
                {
                    "k": list(k),
                    "i": list(i),
                    "rule_k": a_k,
                    "rule_i": a_i,
                    "gcd_factor": factor,
                },
                checked,
                skipped,
            )
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
    members differ exactly at the tuple just added.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    k0 = [tuple(int(e) for e in t) for t in k0]
    if n is None:
        if not k0:
            raise ValueError("n is required when the base exception set is empty")
        n = len(k0[0])
    base = frozenset(k0)
    family = [GcdSubmodule(n, base)]
    added: list[tuple[int, ...]] = []
    stream = _eligible_tuples(n, base)
    for _ in range(count - 1):
        added.append(next(stream))
        family.append(GcdSubmodule(n, base | set(added)))
    return family
