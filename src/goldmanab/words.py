"""Free-group words over generators a1..an.

Words are run-length encoded: a letter is a pair (generator index, nonzero
exponent) and adjacent letters always carry distinct generators, so every
``Word`` is freely reduced by construction.  Conjugacy classes are
represented by ``CyclicWord`` values stored in a canonical rotation.

Conjugacy here is free-group conjugacy.  For a closed surface the
fundamental group has one relator, so ``are_conjugate`` is only sound for
surfaces with boundary; the abelianization layer is unaffected either way
because the surface relator abelianizes to the identity.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, NamedTuple


class _Value:
    """Base of the package's immutable slotted values.

    A subclass lists its fields in ``__slots__``.  Its public constructor
    checks outside input and then calls :meth:`_make`; results computed
    inside the package are valid by construction and call ``_make``
    directly.  Equality and hashing compare the fields in slot order.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_values = operator.attrgetter(*cls.__slots__)
        # Slot descriptors store a field without going through the guard.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _make(cls, *fields):
        """Trusted constructor: store ``fields`` in slot order, unchecked."""
        self = object.__new__(cls)
        for set_field, value in zip(cls._setters, fields):
            set_field(self, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == other._field_values(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))


class Letter(NamedTuple):
    """One maximal run a_gen^exp inside a reduced word."""

    gen: int
    exp: int


def _checked_letters(raw: Iterable[tuple[int, int]], n: int) -> tuple[Letter, ...]:
    """Outside letter data as reduced run-length letters, or ValueError."""
    letters = tuple(Letter(g, e) for g, e in raw)
    prev_gen = 0
    for let in letters:
        if not 1 <= let.gen <= n:
            raise ValueError(f"generator index {let.gen} out of range 1..{n}")
        _check_exponent(let.exp)
        if let.exp == 0:
            raise ValueError("zero-exponent letter")
        if let.gen == prev_gen:
            raise ValueError("adjacent letters share a generator; word not reduced")
        prev_gen = let.gen
    return letters


class Word(_Value):
    """A freely reduced word in the free group on a1..an.

    Instances are immutable.  Use :func:`reduce_word` (or :func:`parse_word`)
    to build one from raw letter data; the constructor expects already
    reduced run-length letters.

    >>> w = reduce_word([(1, 2), (2, 1), (2, -1), (1, 3)], n=2)
    >>> str(w)
    'a1^5'
    """

    __slots__ = ("n", "letters")

    def __new__(cls, n: int, letters: Iterable[Letter] = ()):
        _check_alphabet(n)
        return cls._make(n, _checked_letters(letters, n))

    @classmethod
    def identity(cls, n: int) -> "Word":
        return cls(n, ())

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        """Letter count of the reduced word (each run weighted by |exp|)."""
        return sum(abs(let.exp) for let in self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def inverse(self) -> "Word":
        return inverse(self)

    def __pow__(self, k: int) -> "Word":
        """``conj * core^k * conj^-1``, with core and conj from :func:`cyclic_reduce`.

        A cyclically reduced core repeats without cancellation, and a
        one-letter core only scales its exponent.
        """
        k = operator.index(k)
        core, conj = cyclic_reduce(self)
        if k < 0:
            core, k = inverse(core), -k
        if k == 0 or core.is_identity():
            return Word._make(self.n, ())
        if len(core.letters) == 1:
            (gen, exp), = core.letters
            power = (Letter(gen, exp * k),)
        else:
            power = core.letters * k
        return concat(concat(conj, Word._make(self.n, power)), inverse(conj))

    def __repr__(self) -> str:
        return f"Word({self.n}, {format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


class CyclicWord(_Value):
    """A cyclically reduced word stored in its least rotation.

    The stored rotation is the lexicographically least one under the letter
    order (gen ascending, then exp ascending); any fixed total order would
    do, this one is deterministic and serialization-stable.
    """

    __slots__ = ("n", "letters")

    def __new__(cls, n: int, letters: Iterable[Letter] = ()):
        letters = _checked_letters(letters, n)
        if len(letters) >= 2 and letters[0].gen == letters[-1].gen:
            raise ValueError("first and last letter share a generator; not cyclically reduced")
        if letters != _least_rotation(letters):
            raise ValueError("letters not in canonical rotation")
        return cls._make(n, letters)

    def __repr__(self) -> str:
        body = " ".join(_format_letter(let) for let in self.letters)
        return f"CyclicWord({self.n}, {body!r})"


def _check_alphabet(n: int) -> None:
    if n < 0:
        raise ValueError("alphabet size must be nonnegative")


def _check_exponent(exp: int) -> None:
    if not isinstance(exp, int):
        raise TypeError(f"exponent {exp!r} is not an exact integer")


def _least_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return min((letters[i:] + letters[:i] for i in range(len(letters))), default=letters)


def _push(stack: list[Letter], gen: int, exp: int) -> None:
    # Merge with the top of the stack when generators coincide.
    if exp == 0:
        return
    if stack and stack[-1].gen == gen:
        merged = stack[-1].exp + exp
        stack.pop()
        if merged != 0:
            stack.append(Letter(gen, merged))
    else:
        stack.append(Letter(gen, exp))


def reduce_word(raw: Iterable[tuple[int, int]], n: int) -> Word:
    """Freely reduce a raw sequence of (generator, exponent) pairs.

    Zero exponents are dropped; adjacent runs of the same generator merge
    and cancel.  The result equals the raw product in the free group.

    >>> str(reduce_word([(1, 1), (1, -1)], n=1))
    ''
    >>> str(reduce_word([(1, 1), (2, 1)], n=2))
    'a1 a2'
    """
    _check_alphabet(n)
    stack: list[Letter] = []
    for gen, exp in raw:
        if not 1 <= gen <= n:
            raise ValueError(f"generator index {gen} out of range 1..{n}")
        _check_exponent(exp)
        _push(stack, gen, exp)
    return Word._make(n, tuple(stack))


def concat(u: Word, v: Word) -> Word:
    """Freely reduced product u·v.  Both words must share an alphabet."""
    if u.n != v.n:
        raise ValueError(f"alphabet mismatch: {u.n} vs {v.n}")
    stack = list(u.letters)
    for gen, exp in v.letters:
        _push(stack, gen, exp)
    return Word._make(u.n, tuple(stack))


def inverse(w: Word) -> Word:
    """The inverse word: letters reversed, exponents negated."""
    return Word._make(w.n, tuple(Letter(gen, -exp) for gen, exp in reversed(w.letters)))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Cyclically reduce ``w``, returning (core, conjugator).

    The core is cyclically reduced and ``w == conjugator * core *
    conjugator.inverse()`` in the free group.

    >>> core, conj = cyclic_reduce(parse_word("a1 a2 a1^-1", n=2))
    >>> str(core), str(conj)
    ('a2', 'a1')
    """
    letters = list(w.letters)
    conj: list[Letter] = []
    while len(letters) >= 2 and letters[0].gen == letters[-1].gen:
        first, last = letters[0], letters[-1]
        total = first.exp + last.exp
        if total == 0:
            conj.append(first)
            letters = letters[1:-1]
        else:
            # Ends merge instead of cancelling: rotate the first run inward.
            conj.append(first)
            letters = letters[1:-1] + [Letter(first.gen, total)]
            break
    return Word._make(w.n, tuple(letters)), Word._make(w.n, tuple(conj))


def conjugacy_canonical(w: Word) -> CyclicWord:
    """Canonical cyclic form: invariant under free-group conjugation of w."""
    core, _ = cyclic_reduce(w)
    return CyclicWord._make(w.n, _least_rotation(core.letters))


def are_conjugate(u: Word, v: Word) -> bool:
    """Free-group conjugacy test via canonical cyclic forms."""
    if u.n != v.n:
        raise ValueError(f"alphabet mismatch: {u.n} vs {v.n}")
    return conjugacy_canonical(u) == conjugacy_canonical(v)


_TOKEN = re.compile(r"^a(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, n: int) -> Word:
    """Parse whitespace-separated tokens ``a<k>`` / ``a<k>^<e>``.

    The empty string parses to the identity word.

    >>> str(parse_word("a1 a2^-3 a1^2", n=2))
    'a1 a2^-3 a1^2'
    """
    raw: list[tuple[int, int]] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"malformed word token {token!r}")
        gen = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) is not None else 1
        raw.append((gen, exp))
    return reduce_word(raw, n)


def _format_letter(let: Letter) -> str:
    return f"a{let.gen}" if let.exp == 1 else f"a{let.gen}^{let.exp}"


def format_word(w: Word) -> str:
    """Render a word in the grammar accepted by :func:`parse_word`."""
    return " ".join(_format_letter(let) for let in w.letters)
