"""Free-group words over generators a1..an.

Words are run-length encoded: a letter is a pair (generator index, nonzero
exponent) and adjacent letters always carry distinct generators, so every
``Word`` is freely reduced by construction.  Conjugacy classes are
represented by ``CyclicWord`` values stored in a canonical rotation.  The
alphabet size, indices and exponents are ints, never ``bool``;
:func:`_check_integer` is the package's one check of such integers.

Conjugacy here is free-group conjugacy.  For a closed surface the
fundamental group has one relator, so ``are_conjugate`` is only sound for
surfaces with boundary; the abelianization layer is unaffected either way
because the surface relator abelianizes to the identity.
"""

from __future__ import annotations

import operator
import re
import sys
from functools import partial
from typing import Iterable, NamedTuple, Sequence


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

    def __reduce__(self):
        # copy and pickle rebuild through the trusted constructor.
        return self._make, tuple(getattr(self, name) for name in self.__slots__)

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


# Letter from a (gen, exp) pair without the Python-level NamedTuple __new__.
_new_letter = partial(tuple.__new__, Letter)


def _checked_letters(raw: Iterable[tuple[int, int]], n: int) -> tuple[Letter, ...]:
    """Outside letter data as reduced run-length letters, or ValueError."""
    letters = tuple(Letter(g, e) for g, e in raw)
    prev_gen = 0
    for let in letters:
        _check_integer(let.gen, "generator index", 1, n)
        _check_integer(let.exp)
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
        _check_integer(n, "alphabet size", 0)
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
        _check_integer(k)
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
        _check_integer(n, "alphabet size", 0)
        letters = _checked_letters(letters, n)
        if len(letters) >= 2 and letters[0].gen == letters[-1].gen:
            raise ValueError("first and last letter share a generator; not cyclically reduced")
        if letters != _least_rotation(letters):
            raise ValueError("letters not in canonical rotation")
        return cls._make(n, letters)

    def __repr__(self) -> str:
        body = " ".join(_format_letter(let) for let in self.letters)
        return f"CyclicWord({self.n}, {body!r})"


def _check_integer(value: int, what: str = "exponent", lo: int | None = None,
                   hi: int | None = None) -> None:
    """TypeError unless ``value`` is an int other than a bool; ValueError outside lo..hi."""
    if not isinstance(value, int) or value.__class__ is bool:
        raise TypeError(f"{what} {value!r} is not an exact integer")
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{what} {value} out of range {lo}..{hi}")
    if lo is not None and value < lo:
        raise ValueError(f"{what} must be {'nonnegative' if lo == 0 else f'>= {lo}'}, got {value}")


def _least_rotation(seq: Sequence) -> Sequence:
    """The lexicographically least rotation of ``seq``, in linear time.

    Two-pointer scan (K. S. Booth, IPL 1980, in its i, j, k form): the
    rotations at ``i`` and ``j`` agree on their first ``k`` items, so at the
    first mismatch the larger one, and the ``k`` starts after it, cannot be
    least.  At most about 5n item comparisons (``==`` and ``>``) for n
    items of any mutually comparable kind; a tuple gives a tuple, a list a
    list.
    """
    n = len(seq)
    doubled = seq + seq
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return doubled[start:start + n]


_CODE_POINTS = sys.maxunicode + 1


def _is_rotation(x: tuple, y: tuple) -> bool:
    """Whether ``y`` is a rotation of ``x``: equal lengths and ``x`` inside ``y + y``.

    Each distinct (hashable) item becomes one character, so the scan is
    CPython's ``str`` search, linear on long inputs.  With more distinct
    items than code points the least rotations are compared instead.
    """
    if len(x) != len(y):
        return False
    items = dict.fromkeys(x)
    if len(items) > _CODE_POINTS:
        return _least_rotation(x) == _least_rotation(y)
    char = dict(zip(items, map(chr, range(len(items))))).__getitem__
    try:
        doubled = "".join(map(char, y)) * 2
    except KeyError:  # y has an item that x lacks
        return False
    return "".join(map(char, x)) in doubled


def reduce_word(raw: Iterable[tuple[int, int]], n: int) -> Word:
    """Freely reduce a raw sequence of (generator, exponent) pairs.

    Zero exponents are dropped; adjacent runs of the same generator merge
    and cancel.  The result equals the raw product in the free group.

    >>> str(reduce_word([(1, 1), (1, -1)], n=1))
    ''
    >>> str(reduce_word([(1, 1), (2, 1)], n=2))
    'a1 a2'
    """
    _check_integer(n, "alphabet size", 0)
    stack: list[Letter] = []
    for gen, exp in raw:
        if not (gen.__class__ is exp.__class__ is int and 1 <= gen <= n):
            _check_integer(gen, "generator index", 1, n)
            _check_integer(exp)
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if exp:
            stack.append(_new_letter((gen, exp)))
    return Word._make(n, tuple(stack))


def concat(u: Word, v: Word) -> Word:
    """Freely reduced product u·v.  Both words must share an alphabet."""
    if u.n != v.n:
        raise ValueError(f"alphabet mismatch: {u.n} vs {v.n}")
    left, right = u.letters, v.letters
    # Only the junction changes: cancel inverse letters across it, then
    # merge one pair of runs of a shared generator at most.
    k = 0
    while k < len(left) and k < len(right) and left[-1 - k] == (right[k].gen, -right[k].exp):
        k += 1
    left, right = left[:len(left) - k], right[k:]
    if left and right and left[-1].gen == right[0].gen:
        merged = Letter(right[0].gen, left[-1].exp + right[0].exp)
        return Word._make(u.n, left[:-1] + (merged,) + right[1:])
    return Word._make(u.n, left + right)


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
    lo, core = _cyclic_core(w.letters)
    return Word._make(w.n, core), Word._make(w.n, w.letters[:lo])


def _cyclic_core(letters: tuple[Letter, ...], fold=None) -> tuple[int, tuple[Letter, ...]]:
    """``(lo, core)``: conjugating by ``letters[:lo]`` leaves the cyclically reduced ``core``.

    Matching end letters cancel, or merge into one letter rotated to the
    end.  ``fold(gen, exp)``, when given, replaces a merged exponent first.
    """
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo].gen == letters[hi - 1].gen:
        gen = letters[lo].gen
        total = letters[lo].exp + letters[hi - 1].exp
        if fold:
            total = fold(gen, total)
        lo, hi = lo + 1, hi - 1
        if total:
            return lo, letters[lo:hi] + (Letter(gen, total),)
    return lo, letters[lo:hi]


def conjugacy_canonical(w: Word) -> CyclicWord:
    """Canonical cyclic form: invariant under free-group conjugation of w."""
    return CyclicWord._make(w.n, _least_rotation(_cyclic_core(w.letters)[1]))


def are_conjugate(u: Word, v: Word) -> bool:
    """Free-group conjugacy test, linear in the number of runs.

    Cyclically reduced words are conjugate exactly when their runs are
    rotations of each other, so the two cores go through one rotation test.
    """
    if u.n != v.n:
        raise ValueError(f"alphabet mismatch: {u.n} vs {v.n}")
    return _is_rotation(_cyclic_core(u.letters)[1], _cyclic_core(v.letters)[1])


_TOKEN = re.compile(r"^a(\d+)(?:\^(-?\d+))?$")
# Every whole token of a text: a _TOKEN match bounded by whitespace or the ends.
_TOKENS = re.compile(r"(?<!\S)a(\d+)(?:\^(-?\d+))?(?!\S)")


def parse_word(text: str, n: int) -> Word:
    """Parse whitespace-separated tokens ``a<k>`` / ``a<k>^<e>``.

    The empty string parses to the identity word.

    >>> str(parse_word("a1 a2^-3 a1^2", n=2))
    'a1 a2^-3 a1^2'
    """
    found = _TOKENS.findall(text)
    tokens = text.split()
    if len(found) != len(tokens):
        # Some token is malformed: name the first one, in token order with
        # the numbers int() refuses (more digits than its limit).
        for token in tokens:
            m = _TOKEN.match(token)
            if m is None:
                raise ValueError(f"malformed word token {token!r}")
            int(m[1]), int(m[2] or 1)
    return reduce_word([(int(gen), int(exp) if exp else 1) for gen, exp in found], n)


def _format_letter(let: Letter) -> str:
    return f"a{let.gen}" if let.exp == 1 else f"a{let.gen}^{let.exp}"


def format_word(w: Word) -> str:
    """Render a word in the grammar accepted by :func:`parse_word`."""
    return " ".join(_format_letter(let) for let in w.letters)
