"""The Lie bracket on exact formal sums of monomials.

On monomials the bracket is [x, y] = <x, y> x*y with <,> the symplectic
pairing of the surface; it extends bilinearly to integer and rational
formal sums.  Both rings run through one integer kernel: each element's
coefficients are written over one common denominator (1 in ring Z), every
term pair adds an integer to its output monomial, and one coefficient is
built per output monomial at the end.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from operator import add, mul

from .abelian import ModuleElement, Monomial
from .symplectic import SurfaceSignature, _pairing_row, _require_length


def bracket_monomials(
    sig: SurfaceSignature, x: Monomial, y: Monomial, ring: str = "Z"
) -> ModuleElement:
    """[x, y] = <x, y> x*y, a single-term element (zero when the pairing is).

    >>> sig = SurfaceSignature.closed(1)
    >>> bracket_monomials(sig, Monomial((2, 1)), Monomial((1, 3))).terms()
    [(Monomial((3, 4)), 5)]
    """
    return bracket(sig, ModuleElement.single(ring, x), ModuleElement.single(ring, y))


def _numerators(u: ModuleElement) -> tuple[list[tuple[Monomial, int]], int]:
    """The terms of u as integer numerators over one common denominator."""
    # A list, not a generator: unpacking a generator here raised peak RSS
    # by about 3 MB over many calls.
    den = math.lcm(*[c.denominator for c in u._terms.values()])
    return [(m, c.numerator * (den // c.denominator)) for m, c in u._terms.items()], den


def bracket(sig: SurfaceSignature, u: ModuleElement, v: ModuleElement) -> ModuleElement:
    """Bilinear extension of the monomial bracket; terms merged, zeros pruned.

    >>> sig = SurfaceSignature.closed(1)
    >>> u = ModuleElement("Q", [(Monomial((1, 0)), Fraction(1, 2))])
    >>> v = ModuleElement("Q", [(Monomial((0, 1)), Fraction(2, 3)), (Monomial((1, 0)), 5)])
    >>> bracket(sig, u, v).terms()
    [(Monomial((1, 1)), Fraction(1, 3))]
    """
    u._require_same_ring(v)
    if not (u._terms and v._terms):
        return ModuleElement._make(u.ring, {})
    # All monomials of an element share one length, so one term tells.
    _require_length(sig, next(iter(u._terms)))
    _require_length(sig, next(iter(v._terms)))
    xs, du = _numerators(u)
    ys, dv = _numerators(v)
    # <x, y> = row(x) . y = -row(y) . x: build one pairing row per term of
    # the smaller side, the sign of a row of v going into its numerator.
    # A row stops at a_2g, and so does map() below.
    if len(xs) <= len(ys):
        rows = [(_pairing_row(sig.genus, x), x, c) for x, c in xs]
        cols = ys
    else:
        rows = [(_pairing_row(sig.genus, y), y, -c) for y, c in ys]
        cols = xs
    acc: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for pairing, x, c in rows:
        for y, d in cols:
            p = sum(map(mul, pairing, y))
            if p:
                acc[tuple(map(add, x, y))] += c * d * p
    new = tuple.__new__
    if u.ring == "Z":
        terms = {new(Monomial, m): t for m, t in acc.items() if t}
    else:
        den = du * dv
        terms = {new(Monomial, m): Fraction(t, den) for m, t in acc.items() if t}
    return ModuleElement._make(u.ring, terms)
