"""Geometric integer submodules and their ideal criteria.

A geometric submodule of the integer monomial module is generated by
integer multiples of monomials, so it is determined by the function
sending each exponent tuple to the least positive multiplier it admits
(0 when no multiple lies in the submodule).  Two rule families are
implemented: the gcd rule with a finite exception set, and arbitrary
finite tables over an exponent box.  A criterion check over a box of
pairs, exhaustive or seeded-sampled, reports the first violating pair and
how many pairs it checked and skipped, and it is decided in one of three
ways:

- for the gcd rule, by the paper's proof that it is always a Lie ideal,
  so no pair is visited and no generator is made;
- for an exhaustive bracket-closure check of a table, by a sweep over the
  partners whose points lie in the table's box, the skipped pairs being
  counted arithmetically;
- otherwise, by the pair loop, which tests each pair (v, w) on its own:
  every pair of the box when exhaustive, one drawn pair per sample.

All three give the report the pair loop would give, counts included.
Sampled pairs draw v and then w, each coordinate by
``Random(seed).randrange(-r, r + 1)``.  Every check first validates its
radius and sample count (ints, not bools), capping sweeps and samples at
MAX_EXHAUSTIVE_PAIRS pairs and the coordinates drawn at MAX_SAMPLED_DRAWS.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from operator import add, mul, sub as subtract
from typing import Iterable, Iterator, NamedTuple, Optional

from .abelian import ModuleElement, Monomial
from .symplectic import SurfaceSignature, _pairing_row, symplectic_product
from .words import _check_integer, _Value

MAX_EXHAUSTIVE_PAIRS = 10_000_000
"""The most pairs a criterion check may visit: (2r+1)^(2n) in a sweep, one per sample."""

MAX_SAMPLED_DRAWS = 2 * 10**8
"""The most coordinates a sampled check may draw, 2*n per sample: 10^7 samples up to n = 10."""

MAX_TABLE_ENTRIES = 100_000
"""The most points a table rule's box may hold, (2r+1)^n; only non-default entries are stored."""

MAX_FAMILY_TUPLES = 100_000
"""The most exception tuples a gcd family may hold in all, count*|K0| + count*(count-1)/2."""


def _exponent_tuple(t: Iterable[int]) -> tuple[int, ...]:
    """Outside exponent data as a plain tuple; non-integers raise TypeError."""
    return tuple(Monomial(t))


def _box(radius: int, n: int) -> Iterator[tuple[int, ...]]:
    """The points of [-radius, radius]^n in lexicographic order."""
    return itertools.product(range(-radius, radius + 1), repeat=n)


def _power_exceeds(side: int, exponent: int, cap: int) -> bool:
    """``side ** exponent > cap`` for side >= 1; a side >= 2 passes by exponent cap.bit_length()."""
    return side ** min(exponent, cap.bit_length()) > cap


def divides(d: int, x: int) -> bool:
    """Divisibility with the convention that only 0 is divisible by 0."""
    return x == 0 if d == 0 else x % d == 0


class GeometricSubmodule:
    """Base for monomial-multiple submodules; subclasses supply the rule and ``n``."""

    __slots__ = ()

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


class GcdSubmodule(GeometricSubmodule, _Value):
    """Rule: 1 on a finite exception set K, gcd of the exponent tuple elsewhere.

    The gcd of the all-zero tuple is 0, so the identity monomial has no
    multiple in the submodule unless the zero tuple sits in the exception
    set (in which case the rule value there is 1).

    For every finite K this is a Lie ideal (the paper's Z-module result):
    both ideal criteria hold on every pair, as :func:`bracket_closure_check`
    and :func:`gcd_divisibility_check` prove, so they decide this rule
    without visiting a pair.
    """

    __slots__ = ("n", "exceptions")

    def __new__(cls, n: int, exceptions: Iterable[tuple[int, ...]] = ()):
        _check_integer(n, "tuple length", 1)
        exceptions = frozenset(map(_exponent_tuple, exceptions))
        for t in exceptions:
            if len(t) != n:
                raise ValueError(f"exception tuple {t} has length != {n}")
        return cls._make(n, exceptions)

    def min_multiple(self, x: tuple[int, ...]) -> int:
        if len(x) != self.n:
            raise ValueError(f"monomial length {len(x)} != {self.n}")
        if x in self.exceptions:
            return 1
        return math.gcd(*x)

    def in_domain(self, x: tuple[int, ...]) -> bool:
        return len(x) == self.n

    def __repr__(self) -> str:
        k = sorted(self.exceptions)
        return f"GcdSubmodule(n={self.n}, exceptions={k!r})"


class TableSubmodule(GeometricSubmodule, _Value):
    """Rule given by an explicit finite table over the box [-radius, radius]^n.

    ``n`` >= 1, ``radius`` and the rule values are ints, not bools, and not
    negative.  Evaluation outside the box raises: the ideal criteria
    quantify over the whole monomial group, so sampled checking has to be
    explicit about the domain it actually covered.  Only the values that
    differ from ``default`` are stored, so equal rules compare equal.
    """

    __slots__ = ("n", "radius", "default", "_entries")

    def __new__(cls, n: int, radius: int, values: dict[tuple[int, ...], int] | None = None,
                default: int = 1):
        _check_integer(n, "tuple length", 1)
        _check_integer(radius, "radius", 0)
        _check_integer(default, "rule value", 0)
        side = 2 * radius + 1
        if _power_exceeds(side, n, MAX_TABLE_ENTRIES):
            raise ValueError(
                f"a table of radius {radius} on n = {n} has {side}^{n} entries, "
                f"more than the cap of {MAX_TABLE_ENTRIES}"
            )
        entries: dict[tuple[int, ...], int] = {}
        for t, a in (values or {}).items():
            t = _exponent_tuple(t)
            if len(t) != n or max(map(abs, t)) > radius:
                raise ValueError(f"table key {t} outside the box")
            _check_integer(a, "rule value", 0)
            if a != default:
                entries[t] = a
        return cls._make(n, radius, default, entries)

    def min_multiple(self, x: tuple[int, ...]) -> int:
        if not self.in_domain(x):
            raise ValueError(f"monomial {tuple(x)} outside the table box (radius {self.radius})")
        return self._entries.get(x, self.default)

    def in_domain(self, x: tuple[int, ...]) -> bool:
        return len(x) == self.n and max(map(abs, x)) <= self.radius

    def __hash__(self) -> int:
        return hash((self.n, self.radius, self.default, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        values = dict(sorted(self._entries.items()))
        return (f"TableSubmodule(n={self.n}, radius={self.radius}, values={values!r}, "
                f"default={self.default})")


class CheckReport(NamedTuple):
    """Outcome of a sampled or exhaustive criterion check."""

    ok: bool
    counterexample: Optional[dict]
    checked: int
    skipped: int

    def __bool__(self) -> bool:
        return self.ok


def _pair_count(n: int, radius: int, samples: Optional[int], seed: Optional[int]) -> int:
    # The argument and cap checks of every criterion check, run before any
    # path does work.  Returns the pairs the check covers: (2r+1)^(2n), or
    # samples.
    _check_integer(radius, "box radius", 0)
    if samples is None:
        side, exponent = 2 * radius + 1, 2 * n
        if _power_exceeds(side, exponent, MAX_EXHAUSTIVE_PAIRS):
            # The count is written out while it is short, as a power past that.
            count = side ** exponent if side.bit_length() * exponent <= 64 else f"{side}^{exponent}"
            raise ValueError(
                f"an exhaustive sweep of radius {radius} on n = {n} visits {count} pairs, "
                f"more than the cap of {MAX_EXHAUSTIVE_PAIRS}; sample instead"
            )
        return side ** exponent
    _check_integer(samples, "samples", 0)
    if samples > MAX_EXHAUSTIVE_PAIRS:
        raise ValueError(
            f"{samples} samples exceed the cap of {MAX_EXHAUSTIVE_PAIRS} pairs per check"
        )
    if 2 * n * samples > MAX_SAMPLED_DRAWS:
        raise ValueError(
            f"{samples} samples on n = {n} draw {2 * n * samples} coordinates, "
            f"more than the cap of {MAX_SAMPLED_DRAWS}"
        )
    if seed is None:
        raise ValueError("sampled checks require an explicit seed")
    return samples


def _box_rank(t: tuple[int, ...], radius: int) -> int:
    # How many points of the box precede t in its (lexicographic) order.
    side, rank = 2 * radius + 1, 0
    for e in t:
        rank = rank * side + e + radius
    return rank


def _pairs(
    n: int, radius: int, samples: Optional[int], seed: Optional[int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # Every pair of the box when exhaustive; else v and then w per sample,
    # each coordinate Random(seed).randrange(-radius, radius + 1).  Plain
    # int tuples of length n.  The arguments have passed _pair_count.
    if samples is None:
        return itertools.product(_box(radius, n), repeat=2)
    draws = iter(functools.partial(random.Random(seed).randrange, -radius, radius + 1), None)
    return ((tuple(itertools.islice(draws, n)), tuple(itertools.islice(draws, n)))
            for _ in range(samples))


def _bracket_violation(
    v: tuple[int, ...], w: tuple[int, ...], pairing: int, a_v: int, a_vw: int,
    checked: int, skipped: int,
) -> CheckReport:
    cx = {"v": list(v), "w": list(w), "pairing": pairing, "rule_v": a_v, "rule_vw": a_vw}
    return CheckReport(False, cx, checked, skipped)


def bracket_closure_check(
    sig: SurfaceSignature,
    sub: GeometricSubmodule,
    radius: int,
    samples: Optional[int] = 10_000,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check the bracket-closure divisibility rule(v*w) | <v,w> * rule(v).

    Pairs (v, w) are drawn from the box [-radius, radius]^n (exhaustively
    when ``samples`` is None); pairs with v, w or their product outside the
    rule's domain are skipped and counted.  The first violation is
    reported.  A ``radius`` or ``samples`` not an int (or a bool) raises
    TypeError; a negative one, more than MAX_EXHAUSTIVE_PAIRS pairs
    (exhaustive) or samples, or more than MAX_SAMPLED_DRAWS coordinates
    drawn, raises ValueError, on every rule and before any work.

    The gcd rule is decided without a sweep, by this proof: if v+w is in K
    the rule there is 1.  Otherwise <v,w> = <v, v+w>, because <v,v> = 0,
    and that is an integer combination of the coordinates of v+w, so
    gcd(v+w) divides it.  At v+w = 0 both sides are 0.

    An exhaustive table check visits only the partners w with w and v+w in
    the table's box, a product of per-coordinate ranges, and counts the
    others as skipped.  Other checks go through the pair loop.
    """
    pairs = _pair_count(sig.n, radius, samples, seed)
    exact = type(sub) is GcdSubmodule or (samples is None and type(sub) is TableSubmodule)
    if exact and sub.n != sig.n:
        # The rule's domain is the tuples of length sub.n: no pair lies in it.
        return CheckReport(True, None, 0, pairs)
    if type(sub) is GcdSubmodule:
        return CheckReport(True, None, pairs, 0)
    if exact:
        return _table_bracket_sweep(sig, sub, radius)
    in_domain, rule = sub.in_domain, sub.min_multiple
    checked = skipped = 0
    for v, w in _pairs(sig.n, radius, samples, seed):
        product = tuple(map(add, v, w))
        if not (in_domain(v) and in_domain(w) and in_domain(product)):
            skipped += 1
            continue
        checked += 1
        pairing = symplectic_product(sig, v, w)
        a_v, a_vw = rule(v), rule(product)
        if not divides(a_vw, pairing * a_v):
            return _bracket_violation(v, w, pairing, a_v, a_vw, checked, skipped)
    return CheckReport(True, None, checked, skipped)


def _table_bracket_sweep(sig: SurfaceSignature, sub: TableSubmodule, radius: int) -> CheckReport:
    # The pair loop's report for an exhaustive sweep of a table.  The loop
    # skips every pair of a v outside the table box, and the partners w of
    # an in-box v with w or u = v+w outside it; the others form a box of u,
    # visited in the loop's order.  <v,w> = <v,u> costs one dot product with
    # v's row, and a violation at u is counted by the rank of w.
    entries, default, big = sub._entries, sub.default, sub.radius
    r, box_size = min(radius, big), (2 * radius + 1) ** sig.n
    checked = skipped = 0
    for v in _box(radius, sig.n):
        if max(map(abs, v)) > big:
            skipped += box_size
            continue
        a_v = entries.get(v, default)
        row = _pairing_row(sig.genus, v)
        ranges = [range(max(e - r, -big), min(e + r, big) + 1) for e in v]
        for j, u in enumerate(itertools.product(*ranges)):
            pairing = sum(map(mul, row, u))
            a_u = entries.get(u, default)
            if not divides(a_u, pairing * a_v):
                w = tuple(map(subtract, u, v))
                return _bracket_violation(v, w, pairing, a_v, a_u, checked + j + 1,
                                          skipped + _box_rank(w, radius) - j)
        partners = math.prod(map(len, ranges))
        checked += partners
        skipped += box_size - partners
    return CheckReport(True, None, checked, skipped)


def gcd_divisibility_check(
    sig: SurfaceSignature,
    sub: GeometricSubmodule,
    radius: int,
    samples: Optional[int] = 10_000,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check rule(k) | rule(i) * gcd_t(gcd(k-pair_t) * gcd(i-pair_t)).

    The same sampling conventions, argument checks and limits as
    :func:`bracket_closure_check`; no product point is needed, so only
    pairs outside the domain are skipped.  With genus 0 there are no pairs
    and the factor is gcd() = 0.

    The gcd rule is decided without a sweep, by this proof: if k is in K
    the rule there is 1.  Otherwise gcd(k) divides every
    gcd(k_{2t-1}, k_{2t}), so it divides each product and the factor.  At
    genus 0 and at k = 0 both sides are 0.

    Other rules go through the pair loop.
    """
    pairs = _pair_count(sig.n, radius, samples, seed)
    if type(sub) is GcdSubmodule:
        # The rule's domain is the tuples of length sub.n: every pair lies
        # in it, or none does.
        if sub.n != sig.n:
            return CheckReport(True, None, 0, pairs)
        return CheckReport(True, None, pairs, 0)
    in_domain, rule = sub.in_domain, sub.min_multiple
    checked = skipped = 0
    for k, i in _pairs(sig.n, radius, samples, seed):
        if not (in_domain(k) and in_domain(i)):
            skipped += 1
            continue
        checked += 1
        a_k, a_i = rule(k), rule(i)
        factor = math.gcd(*(math.gcd(*k[t:t + 2]) * math.gcd(*i[t:t + 2])
                            for t in range(0, 2 * sig.genus, 2)))
        if not divides(a_k, a_i * factor):
            cx = {"k": list(k), "i": list(i), "rule_k": a_k, "rule_i": a_i, "gcd_factor": factor}
            return CheckReport(False, cx, checked, skipped)
    return CheckReport(True, None, checked, skipped)



def _eligible_tuples(n: int, excluded: frozenset[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    # Tuples ordered by (max |entry|, then lexicographic), gcd > 1 only.
    # The scan starts at the shell of radius 2: every tuple of the radius-1
    # shell has an entry of +-1, so its gcd is 1, and scanning its 3^n
    # tuples would cost time and add nothing.
    radius = 2
    while True:
        for t in _box(radius, n):
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
    _check_integer(count, "count", 1)
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
    family = [GcdSubmodule(n, base)]  # checks k0 against n
    stream = _eligible_tuples(n, base)
    for _ in range(count - 1):
        # The stream yields exponent tuples of length n: nothing to check again.
        family.append(GcdSubmodule._make(n, family[-1].exceptions | {next(stream)}))
    return family
