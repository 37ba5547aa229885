"""The Lie bracket on exact formal sums of monomials.

On monomials the bracket is [x, y] = <x, y> x*y with <,> the symplectic
pairing of the surface; it extends bilinearly to integer and rational
formal sums.  Both rings run through one integer kernel on the stored
form: every term pair adds the product of two integer numerators to its
output monomial, the output denominator is the product of the two
denominators (1 in ring Z), and one gcd puts the result in lowest terms.
No ``Fraction`` is built.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, mul

from .abelian import ModuleElement, Monomial, _lowest
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


def bracket(sig: SurfaceSignature, u: ModuleElement, v: ModuleElement) -> ModuleElement:
    """Bilinear extension of the monomial bracket; terms merged, zeros pruned.

    >>> from fractions import Fraction
    >>> sig = SurfaceSignature.closed(1)
    >>> u = ModuleElement("Q", [(Monomial((1, 0)), Fraction(1, 2))])
    >>> v = ModuleElement("Q", [(Monomial((0, 1)), Fraction(2, 3)), (Monomial((1, 0)), 5)])
    >>> bracket(sig, u, v).terms()
    [(Monomial((1, 1)), Fraction(1, 3))]
    """
    u._require_same_ring(v)
    xs, ys = u._terms, v._terms
    if not (xs and ys):
        return ModuleElement._make(u.ring, {}, 1)
    # All monomials of an element share one length, so one term tells.
    _require_length(sig, next(iter(xs)))
    _require_length(sig, next(iter(ys)))
    # <x, y> = row(x) . y = -row(y) . x: build one pairing row per term of
    # the smaller side, the sign of a row of v going into its numerator.
    # A row stops at a_2g, and so does map() below.
    if len(xs) <= len(ys):
        rows = [(_pairing_row(sig.genus, x), x, c) for x, c in xs.items()]
        cols = ys.items()
    else:
        rows = [(_pairing_row(sig.genus, y), y, -c) for y, c in ys.items()]
        cols = xs.items()
    acc: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for pairing, x, c in rows:
        for y, d in cols:
            p = sum(map(mul, pairing, y))
            if p:
                acc[tuple(map(add, x, y))] += c * d * p
    new = tuple.__new__
    terms = {new(Monomial, m): t for m, t in acc.items() if t}
    return _lowest(u.ring, terms, u._den * v._den)
