"""Exponent-vector monomials and exact formal sums over them.

A ``Monomial`` is an element of the free abelian group on n generators,
stored as a tuple of integer exponents.  A ``ModuleElement`` is a finitely
supported map from monomials to exact coefficients, tagged with its
coefficient ring: ``"Z"`` (Python ints) or ``"Q"`` (``fractions.Fraction``).
Both rings store integer numerators over one positive denominator in
lowest terms, the denominator 1 in ring Z; ``Fraction``s are built only
where the API returns a ring-Q coefficient.  All arithmetic is exact and
arbitrary precision.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .words import Word, _check_integer, _Value

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
            if e.__class__ is not int:
                _check_integer(e)
        return tuple.__new__(cls, exps)

    @classmethod
    def identity(cls, n: int) -> "Monomial":
        _check_integer(n, "alphabet size", 0)
        return tuple.__new__(cls, (0,) * n)

    @classmethod
    def unit(cls, n: int, gen: int) -> "Monomial":
        """The generator monomial a_gen (1-based index)."""
        _check_integer(n, "alphabet size", 0)
        _check_integer(gen, "generator index", 1, n)
        exps = [0] * n
        exps[gen - 1] = 1
        return tuple.__new__(cls, exps)

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
        if isinstance(coef, int) and coef.__class__ is not bool:
            return coef
        raise TypeError(f"ring Z requires int coefficients, got {coef!r}")
    if ring == "Q":
        if isinstance(coef, Fraction):
            return coef
        if isinstance(coef, int) and coef.__class__ is not bool:
            return Fraction(coef)
        raise TypeError(f"ring Q requires exact rational coefficients, got {coef!r}")
    raise ValueError(f"unknown ring {ring!r}")


def _exact_from_json(value, ring: str) -> Coefficient:
    """A coefficient read from JSON or the CLI: a string or an int, never a float or bool.

    A decimal exponent past the int-string digit limit raises ValueError, as
    an integer string that long does, before ``Fraction`` builds 10**exponent.
    """
    if not isinstance(value, (str, int)) or value.__class__ is bool:
        raise TypeError(f"coefficient {value!r} must be a string or an integer")
    exponent = isinstance(value, str) and re.search(r"[eE]([-+]?[\d_]+)\s*$", value)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7
    try:
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent {exponent[1]} exceeds the {limit}-digit limit")
        return int(value) if ring == "Z" else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coefficient: {exc}") from exc


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_shape(value, kind: type, what: str):
    """``value`` when it has the JSON shape ``kind`` (dict or list).

    Otherwise a TypeError that says what was expected where.
    """
    if not isinstance(value, kind):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise TypeError(f"{what} must be a JSON {'object' if kind is dict else 'list'}, got {got}")
    return value


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
    equality and serialization deterministic.  ``_terms`` maps each monomial
    to a nonzero integer numerator over ``_den >= 1``, and
    ``gcd(_den, *numerators) == 1``, so equal elements have equal fields.
    """

    __slots__ = ("ring", "_terms", "_den")

    def __new__(cls, ring: str, terms: Iterable[tuple[Monomial, Coefficient]] = ()):
        if ring not in RINGS:
            raise ValueError(f"unknown ring {ring!r}")
        terms = [(mono if mono.__class__ is Monomial else Monomial(mono),
                  _check_coefficient(ring, coef)) for mono, coef in terms]
        if len({len(mono) for mono, _ in terms}) > 1:
            raise ValueError("mixed monomial lengths")
        merged = _merge_terms(terms)
        return _rational(merged) if ring == "Q" else cls._make(ring, merged, 1)

    @classmethod
    def zero(cls, ring: str = "Z") -> "ModuleElement":
        return cls(ring)

    @classmethod
    def single(cls, ring: str, mono: Monomial, coef: Coefficient = 1) -> "ModuleElement":
        return cls(ring, [(mono, coef)])

    def terms(self) -> list[tuple[Monomial, Coefficient]]:
        """Terms sorted lexicographically by exponent vector."""
        t, den = self._terms, self._den
        if self.ring == "Z":
            return [(m, t[m]) for m in sorted(t)]
        return [(m, Fraction(t[m], den)) for m in sorted(t)]

    def coefficient(self, mono: Monomial) -> Coefficient:
        num = self._terms.get(mono, 0)
        return num if self.ring == "Z" else Fraction(num, self._den)

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
        left, right, den = self._terms.items(), other._terms.items(), self._den
        if den != other._den:
            den = math.lcm(den, other._den)
            a, b = den // self._den, den // other._den
            left = [(m, c * a) for m, c in left]
            right = [(m, c * b) for m, c in right]
        return _lowest(self.ring, _merge_terms(left, right), den)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement._make(self.ring, {m: -c for m, c in self._terms.items()}, self._den)

    def scaled(self, factor: Coefficient) -> "ModuleElement":
        factor = _check_coefficient(self.ring, factor)
        if not factor:
            return ModuleElement._make(self.ring, {}, 1)
        num = factor.numerator
        return _lowest(self.ring, {m: c * num for m, c in self._terms.items()},
                       self._den * factor.denominator)

    def to_rational(self) -> "ModuleElement":
        """Explicit promotion of an integer element into the rational module."""
        if self.ring == "Q":
            return self
        return ModuleElement._make("Q", self._terms, 1)

    def __hash__(self) -> int:
        return hash((self.ring, self._den, frozenset(self._terms.items())))

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
        ring = _json_shape(obj, dict, "a module element")["ring"]
        if ring not in RINGS:
            raise ValueError(f"unknown ring {ring!r}")
        terms = []
        for item in _json_shape(obj["terms"], list, "'terms' of a module element"):
            item = _json_shape(item, dict, "a term of a module element")
            mono = Monomial(_json_shape(item["exp"], list, "'exp' of a term"))
            terms.append((mono, _exact_from_json(item["coef"], ring)))
        return cls(ring, terms)


def _lowest(ring: str, numerators: dict, den: int) -> ModuleElement:
    """Trusted: the element with nonzero ``numerators`` over ``den >= 1``, in lowest terms."""
    if den != 1:
        g = math.gcd(den, *numerators.values())
        if g != 1:
            numerators = {m: c // g for m, c in numerators.items()}
            den //= g
    return ModuleElement._make(ring, numerators, den)


def _rational(terms: dict) -> ModuleElement:
    """Trusted: the ring-Q element of a map from monomials to nonzero Fractions.

    Over the lcm of the denominators the numerators are in lowest terms: a
    prime power that divides the lcm exactly divides some denominator
    exactly, and that denominator's numerator is prime to it.
    """
    den = math.lcm(*[c.denominator for c in terms.values()])
    return ModuleElement._make(
        "Q", {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den)


def exponent_vector(w: Word, n: int | None = None) -> Monomial:
    """Total exponent of each generator in ``w`` (the reordering map).

    >>> from .words import parse_word
    >>> exponent_vector(parse_word("a1^2 a2^-3", n=2))
    Monomial((2, -3))
    """
    if n is None:
        n = w.n
    else:
        _check_integer(n, "alphabet size", 0)
    exps = [0] * n
    for let in w.letters:
        if let.gen > n:
            raise ValueError(f"generator index {let.gen} out of range 1..{n}")
        exps[let.gen - 1] += let.exp
    return tuple.__new__(Monomial, exps)


def generator_exponent_sum(w: Word, gen: int) -> int:
    """Signed exponent sum of one generator in ``w``."""
    _check_integer(gen, "generator index", 1, w.n)
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
