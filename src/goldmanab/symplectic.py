"""Surface signatures and the integer symplectic pairing on exponent vectors.

A compact orientable surface is described by its genus and boundary count;
the rank of its abelianized fundamental group is n = 2g for a closed
surface and n = 2g + b - 1 with b >= 1 boundary components.  Generators
come in symplectic pairs <a_{2t-1}, a_{2t}> = +1 for t = 1..g; every other
generator pair has pairing 0, so the last b - 1 generators of a boundary
surface pair to zero with everything.
"""

from __future__ import annotations

from operator import mul

from .abelian import Monomial, exponent_vector
from .words import Word, _check_integer, _Value

MAX_RANK = 1_000_000
"""The largest rank n a surface may have.

Monomials are dense tuples of n integers, so every exponent vector, pairing
and product costs time and memory in proportion to n.  Without a cap,
``pair --closed 99999999999 a1 a2`` dies of a MemoryError and genus 10^8
takes 47 s and 6 GB; at the cap (closed genus 5*10^5) that pairing takes
0.2 s and 46 MB of peak RSS (Python 3.11, 2-vCPU VM).  The surfaces of the
tests and the benchmark have n <= 6, far below it.
"""


class SurfaceSignature(_Value):
    """Genus plus boundary count; ``boundary == 0`` means a closed surface."""

    __slots__ = ("genus", "boundary", "n")

    def __new__(cls, genus: int, boundary: int = 0):
        _check_integer(boundary, "boundary count", 0)
        _check_integer(genus, "genus", 0 if boundary else 1)  # closed: genus >= 1
        n = 2 * genus + boundary - 1 if boundary else 2 * genus
        if n < 1:
            raise ValueError("surface must have n >= 1 (the disk is excluded)")
        if n > MAX_RANK:
            raise ValueError(f"rank n = {n} exceeds MAX_RANK = {MAX_RANK}")
        return cls._make(genus, boundary, n)

    @classmethod
    def closed(cls, genus: int) -> "SurfaceSignature":
        return cls(genus, 0)

    @classmethod
    def with_boundary(cls, genus: int, boundary: int) -> "SurfaceSignature":
        _check_integer(boundary, "boundary count", 1)
        return cls(genus, boundary)

    @property
    def is_closed(self) -> bool:
        return self.boundary == 0

    def describe(self) -> str:
        if self.is_closed:
            return f"closed genus {self.genus}"
        return f"genus {self.genus} with {self.boundary} boundary components"

    def __repr__(self) -> str:
        return f"SurfaceSignature(genus={self.genus}, boundary={self.boundary})"


def _require_length(sig: SurfaceSignature, x: Monomial) -> None:
    if len(x) != sig.n:
        raise ValueError(f"monomial length {len(x)} != n = {sig.n}")


def symplectic_product(sig: SurfaceSignature, x: Monomial, y: Monomial) -> int:
    """The antisymmetric bilinear form sum_t (x_{2t-1} y_{2t} - x_{2t} y_{2t-1}).

    >>> sig = SurfaceSignature.closed(1)
    >>> symplectic_product(sig, Monomial((2, 1)), Monomial((1, 3)))
    5
    """
    _require_length(sig, x)
    _require_length(sig, y)
    return sum(map(mul, _pairing_row(sig.genus, x), y))


def _pairing_row(genus: int, x: tuple[int, ...]) -> list[int]:
    """[<x, a_1>, ..., <x, a_2g>] = [-x_2, x_1, -x_4, x_3, ...]: the form itself.

    <x, y> is this row dotted with y; a_{2g+1}..a_n pair to zero with
    everything, so the row stops at a_2g.  The length of x is not checked.
    """
    return [e for t in range(0, 2 * genus, 2) for e in (-x[t + 1], x[t])]


def pairing_vector(sig: SurfaceSignature, x: Monomial) -> tuple[int, ...]:
    """(<x, a_1>, ..., <x, a_n>), so that symplectic_product(x, y) = Y . vector."""
    _require_length(sig, x)
    return (*_pairing_row(sig.genus, x), *(0,) * len(center_generators(sig)))


def center_generators(sig: SurfaceSignature) -> range:
    """Indices i of the generators a_i that pair to zero with everything.

    Empty for a closed surface; 2g+1..n otherwise.  They generate the
    center, the monomials whose first 2g exponents vanish.
    """
    return range(2 * sig.genus + 1, sig.n + 1)


def is_central(sig: SurfaceSignature, x: Monomial) -> bool:
    """True iff the pairing of x with every monomial vanishes."""
    _require_length(sig, x)
    return not any(x[: 2 * sig.genus])


def intersection_pairing(sig: SurfaceSignature, u: Word, v: Word) -> int:
    """Total signed intersection number of two loop classes.

    Computed through the abelianization: the pairing of the exponent
    vectors equals the sum of the signs over the intersection points of
    representative curves in minimal position.
    """
    return symplectic_product(sig, exponent_vector(u, sig.n), exponent_vector(v, sig.n))
