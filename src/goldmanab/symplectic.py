"""Surface signatures and the integer symplectic pairing on exponent vectors.

A compact orientable surface is described by its genus and boundary count;
the rank of its abelianized fundamental group is n = 2g for a closed
surface and n = 2g + b - 1 with b >= 1 boundary components.  Generators
come in symplectic pairs <a_{2t-1}, a_{2t}> = +1 for t = 1..g; every other
generator pair has pairing 0, so the last b - 1 generators of a boundary
surface pair to zero with everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abelian import Monomial, exponent_vector
from .words import Word, _Value


@dataclass(frozen=True)
class SurfaceSignature:
    """Genus plus boundary count; ``boundary == 0`` means a closed surface."""

    genus: int
    boundary: int = 0

    def __post_init__(self):
        if self.boundary < 0:
            raise ValueError("boundary component count must be nonnegative")
        if self.boundary == 0 and self.genus < 1:
            raise ValueError("closed surface needs genus >= 1")
        if self.boundary > 0 and self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.n < 1:
            raise ValueError("surface must have n >= 1 (the disk is excluded)")

    @classmethod
    def closed(cls, genus: int) -> "SurfaceSignature":
        return cls(genus, 0)

    @classmethod
    def with_boundary(cls, genus: int, boundary: int) -> "SurfaceSignature":
        if boundary < 1:
            raise ValueError("boundary surface needs at least one component")
        return cls(genus, boundary)

    @property
    def is_closed(self) -> bool:
        return self.boundary == 0

    @property
    def n(self) -> int:
        if self.boundary == 0:
            return 2 * self.genus
        return 2 * self.genus + self.boundary - 1

    @cached_property
    def pairing_matrix(self) -> "PairingMatrix":
        return PairingMatrix.for_signature(self)

    def describe(self) -> str:
        if self.is_closed:
            return f"closed genus {self.genus}"
        return f"genus {self.genus} with {self.boundary} boundary components"


class PairingMatrix(_Value):
    """The n x n integer matrix with rows[j-1][i-1] = <a_i, a_j>."""

    __slots__ = ("rows",)

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        return cls._make(rows)

    @classmethod
    def for_signature(cls, sig: SurfaceSignature) -> "PairingMatrix":
        n, g = sig.n, sig.genus
        rows = [[0] * n for _ in range(n)]
        for t in range(1, g + 1):
            i, j = 2 * t - 1, 2 * t  # <a_i, a_j> = +1
            rows[j - 1][i - 1] = 1
            rows[i - 1][j - 1] = -1
        return cls(tuple(tuple(r) for r in rows))

    def generator_pairing(self, i: int, j: int) -> int:
        """<a_i, a_j> for 1-based generator indices."""
        return self.rows[j - 1][i - 1]

    def __repr__(self) -> str:
        return f"PairingMatrix({self.rows!r})"


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
    return sum(
        x[2 * t] * y[2 * t + 1] - x[2 * t + 1] * y[2 * t] for t in range(sig.genus)
    )


def pairing_vector(sig: SurfaceSignature, x: Monomial) -> tuple[int, ...]:
    """The matrix product A.X, so that symplectic_product(x, y) = Y . A.X."""
    _require_length(sig, x)
    rows = sig.pairing_matrix.rows
    return tuple(sum(row[i] * x[i] for i in range(sig.n)) for row in rows)


def center_generators(sig: SurfaceSignature) -> list[Monomial]:
    """Generators of the monomials pairing to zero with everything.

    Empty for a closed surface; the generators a_{2g+1}..a_n otherwise.
    """
    return [Monomial.unit(sig.n, gen) for gen in range(2 * sig.genus + 1, sig.n + 1)]


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
