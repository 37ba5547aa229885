"""Exponent-vector monomials and exact formal sums over them.

A ``Monomial`` is an element of the free abelian group on n generators,
stored as a tuple of integer exponents.  A ``ModuleElement`` is a finitely
supported map from monomials to exact coefficients, tagged with its
coefficient ring: ``"Z"`` (Python ints) or ``"Q"`` (``fractions.Fraction``).
All arithmetic is exact and arbitrary precision.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .words import Word, _Value

Coefficient = Union[int, Fraction]

RINGS = ("Z", "Q")


class Monomial(tuple):
    """An integer exponent vector a1^e1 ... an^en: a tuple of exponents.

    >>> Monomial((1, 2)) * Monomial((0, -2))
    Monomial((1, 0))
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[int]):
        exps = tuple(exps)
        for e in exps:
            if not isinstance(e, int):
                raise TypeError(f"exponent {e!r} is not an exact integer")
        return tuple.__new__(cls, exps)

    @classmethod
    def identity(cls, n: int) -> "Monomial":
        return tuple.__new__(cls, (0,) * n)

    @classmethod
    def unit(cls, n: int, gen: int) -> "Monomial":
        """The generator monomial a_gen (1-based index)."""
        if not 1 <= gen <= n:
            raise ValueError(f"generator index {gen} out of range 1..{n}")
        return tuple.__new__(cls, (1 if j == gen - 1 else 0 for j in range(n)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self) != len(other):
            raise ValueError("monomial length mismatch")
        return tuple.__new__(Monomial, map(operator.add, self, other))

    def inverse(self) -> "Monomial":
        return tuple.__new__(Monomial, map(operator.neg, self))

    def __add__(self, other):
        # Tuple concatenation and repetition mean nothing for exponent vectors.
        return NotImplemented

    __rmul__ = __add__

    def is_identity(self) -> bool:
        return not any(self)

    def __repr__(self) -> str:
        return f"Monomial({tuple(self)!r})"


def _check_coefficient(ring: str, coef: Coefficient) -> Coefficient:
    if ring == "Z":
        if isinstance(coef, int):
            return coef
        raise TypeError(f"ring Z requires int coefficients, got {coef!r}")
    if ring == "Q":
        if isinstance(coef, Fraction):
            return coef
        if isinstance(coef, int):
            return Fraction(coef)
        raise TypeError(f"ring Q requires exact rational coefficients, got {coef!r}")
    raise ValueError(f"unknown ring {ring!r}")


def _merge_terms(*term_lists: Iterable[tuple[Monomial, Coefficient]]) -> dict:
    """Sum the coefficients of equal monomials and drop the zero sums."""
    acc: dict[Monomial, Coefficient] = {}
    for terms in term_lists:
        for mono, coef in terms:
            new = acc.get(mono, 0) + coef
            if new:
                acc[mono] = new
            else:
                acc.pop(mono, None)
    return acc


class ModuleElement(_Value):
    """A finitely supported exact linear combination of monomials.

    Zero coefficients are never stored; all monomials share one length;
    iteration is sorted lexicographically by exponent vector, which makes
    equality and serialization deterministic.
    """

    __slots__ = ("ring", "_terms")

    def __new__(cls, ring: str, terms: Iterable[tuple[Monomial, Coefficient]] = ()):
        if ring not in RINGS:
            raise ValueError(f"unknown ring {ring!r}")
        terms = [(mono, _check_coefficient(ring, coef)) for mono, coef in terms]
        if len({len(mono) for mono, _ in terms}) > 1:
            raise ValueError("mixed monomial lengths")
        return cls._make(ring, _merge_terms(terms))

    @classmethod
    def zero(cls, ring: str = "Z") -> "ModuleElement":
        return cls(ring)

    @classmethod
    def single(cls, ring: str, mono: Monomial, coef: Coefficient = 1) -> "ModuleElement":
        return cls(ring, [(mono, coef)])

    def terms(self) -> list[tuple[Monomial, Coefficient]]:
        """Terms sorted lexicographically by exponent vector."""
        return sorted(self._terms.items())

    def coefficient(self, mono: Monomial) -> Coefficient:
        return self._terms.get(mono, Fraction(0) if self.ring == "Q" else 0)

    def support(self) -> set[Monomial]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def _require_same_ring(self, other: "ModuleElement") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._require_same_ring(other)
        if self._terms and other._terms and len(next(iter(self._terms))) != len(
            next(iter(other._terms))
        ):
            raise ValueError("mixed monomial lengths")
        return ModuleElement._make(
            self.ring, _merge_terms(self._terms.items(), other._terms.items())
        )

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement._make(self.ring, {m: -c for m, c in self._terms.items()})

    def scaled(self, factor: Coefficient) -> "ModuleElement":
        factor = _check_coefficient(self.ring, factor)
        if not factor:
            return ModuleElement._make(self.ring, {})
        return ModuleElement._make(self.ring, {m: c * factor for m, c in self._terms.items()})

    def to_rational(self) -> "ModuleElement":
        """Explicit promotion of an integer element into the rational module."""
        if self.ring == "Q":
            return self
        return ModuleElement._make("Q", {m: Fraction(c) for m, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"ModuleElement({self.ring!r}, 0)"
        body = " + ".join(f"{c}*{tuple(m)}" for m, c in self.terms())
        return f"ModuleElement({self.ring!r}, {body})"

    def to_json_obj(self) -> dict:
        """The documented JSON form, terms sorted by exponent vector."""
        return {
            "ring": self.ring,
            "terms": [
                {"exp": list(m), "coef": str(c)} for m, c in self.terms()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModuleElement":
        ring = obj["ring"]
        if ring not in RINGS:
            raise ValueError(f"unknown ring {ring!r}")
        terms = []
        for item in obj["terms"]:
            mono = Monomial(tuple(int(e) for e in item["exp"]))
            coef = int(item["coef"]) if ring == "Z" else Fraction(item["coef"])
            terms.append((mono, coef))
        return cls(ring, terms)


def exponent_vector(w: Word, n: int | None = None) -> Monomial:
    """Total exponent of each generator in ``w`` (the reordering map).

    >>> from .words import parse_word
    >>> exponent_vector(parse_word("a1^2 a2^-3", n=2))
    Monomial((2, -3))
    """
    if n is None:
        n = w.n
    exps = [0] * n
    for let in w.letters:
        if let.gen > n:
            raise ValueError(f"generator index {let.gen} out of range 1..{n}")
        exps[let.gen - 1] += let.exp
    return tuple.__new__(Monomial, exps)


def generator_exponent_sum(w: Word, gen: int) -> int:
    """Signed exponent sum of one generator in ``w``."""
    if not 1 <= gen <= w.n:
        raise ValueError(f"generator index {gen} out of range 1..{w.n}")
    return sum(let.exp for let in w.letters if let.gen == gen)


def abelianize(
    terms: Sequence[tuple[Coefficient, Word]],
    n: int,
    ring: str | None = None,
) -> ModuleElement:
    """Linear extension of :func:`exponent_vector` to formal sums of words.

    Coefficients must all be integers or all rationals; the ring may also be
    forced explicitly.  Conjugate words abelianize identically, so the
    result only depends on the conjugacy classes in the sum.
    """
    if ring is None:
        if all(isinstance(c, int) for c, _ in terms):
            ring = "Z"
        elif all(isinstance(c, Fraction) for c, _ in terms):
            ring = "Q"
        else:
            raise ValueError("mixed rings: coefficients must be all int or all Fraction")
    return ModuleElement(ring, [(exponent_vector(w, n), c) for c, w in terms])
