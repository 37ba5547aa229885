"""The Lie bracket on exact formal sums of monomials.

On monomials the bracket is [x, y] = <x, y> x*y with <,> the symplectic
pairing of the surface; it extends bilinearly to integer and rational
formal sums.  Both rings run through the same code path.
"""

from __future__ import annotations

from fractions import Fraction

from .abelian import Coefficient, ModuleElement, Monomial, _merge_terms
from .symplectic import SurfaceSignature, symplectic_product


def bracket_monomials(
    sig: SurfaceSignature, x: Monomial, y: Monomial, ring: str = "Z"
) -> ModuleElement:
    """[x, y] = <x, y> x*y, a single-term element (zero when the pairing is).

    >>> sig = SurfaceSignature.closed(1)
    >>> bracket_monomials(sig, Monomial((2, 1)), Monomial((1, 3))).terms()
    [(Monomial((3, 4)), 5)]
    """
    p = symplectic_product(sig, x, y)
    if p == 0:
        return ModuleElement.zero(ring)
    coef: Coefficient = Fraction(p) if ring == "Q" else p
    return ModuleElement.single(ring, x * y, coef)


def bracket(sig: SurfaceSignature, u: ModuleElement, v: ModuleElement) -> ModuleElement:
    """Bilinear extension of the monomial bracket; terms merged, zeros pruned."""
    if u.ring != v.ring:
        raise ValueError(f"ring mismatch: {u.ring} vs {v.ring}")
    terms = []
    for xm, xc in u._terms.items():
        for ym, yc in v._terms.items():
            p = symplectic_product(sig, xm, ym)
            if p:
                terms.append((xm * ym, xc * yc * p))
    return ModuleElement._make(u.ring, _merge_terms(terms))
