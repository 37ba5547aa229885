"""Quotients of a free group by powers of one distinguished generator.

Killing c^(2^level) for a free generator c turns the free group into the
free product of a cyclic group of order 2^level (generated by c) with the
free group on the remaining generators.  Elements are kept in normal form:
c-exponents live in the symmetric residue range (-2^(level-1), 2^(level-1)]
and no two adjacent letters can merge.  At level 0 the c-factor is trivial
and every c-letter vanishes.

The quotient is a free product of cyclic groups, one per generator, so a
normal form is a sequence of letters and conjugacy is decided on letter
cycles: cyclically reduced elements are conjugate exactly when one is a
rotation of the other (Lyndon-Schupp IV.1.4).

The projections at successive levels have nested kernels, which realizes a
strictly descending chain; the separation machinery finds the first level
at which two non-conjugate words stop being conjugate in the quotient.
Words conjugate at level L + 1 are conjugate at level L, since
c^(2^(L+1)) is a power of c^(2^L); so separation is monotone, and
:func:`separation_level` bisects over ``[0, min(nmax, T)]``, T being one
bit past the largest |c-exponent| of the words' cyclic cores, where each
of those exponents is its own residue.  No operation builds 2^level for an
exponent shorter than ``level`` bits, which is its own residue, so a huge
level costs nothing.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

from .words import (
    Letter,
    Word,
    _check_integer,
    _checked_letters,
    _cyclic_core,
    _is_rotation,
    _new_letter,
    _Value,
    concat,
    inverse,
)


def symmetric_residue(exp: int, level: int) -> int:
    """Reduce mod 2^level into (-2^(level-1), 2^(level-1)].

    The boundary value +2^(level-1) is kept, its negative is folded up.

    >>> [symmetric_residue(e, 2) for e in range(-4, 5)]
    [0, 1, 2, -1, 0, 1, 2, -1, 0]
    """
    _check_integer(exp)
    _check_integer(level, "level", 0)
    if exp.bit_length() < level:  # |exp| < 2^(level-1): already in range
        return exp
    modulus = 1 << level
    r = exp % modulus
    if r > modulus >> 1:
        r -= modulus
    return r


class QuotientWord(_Value):
    """Normal-form element of the level quotient.

    Immutable; built with :func:`project_word` or by multiplying existing
    elements.  Products and inverses project free-group ones, so
    :func:`project_word` writes every normal form.
    """

    __slots__ = ("level", "c", "alphabet", "letters")

    def __new__(cls, level: int, c: int, alphabet: int, letters: Iterable[Letter] = ()):
        _check_integer(level, "level", 0)
        _check_integer(alphabet, "alphabet size", 0)
        _check_integer(c, "distinguished generator", 1, alphabet)
        letters = _checked_letters(letters, alphabet)
        for gen, exp in letters:
            if gen == c and symmetric_residue(exp, level) != exp:
                raise ValueError(f"c-exponent {exp} outside the level-{level} residue range")
        return cls._make(level, c, alphabet, letters)

    @classmethod
    def identity(cls, level: int, c: int, alphabet: int) -> "QuotientWord":
        return cls(level, c, alphabet, ())

    def is_identity(self) -> bool:
        return not self.letters

    def _require_compatible(self, other: "QuotientWord") -> None:
        if (self.level, self.c, self.alphabet) != (other.level, other.c, other.alphabet):
            raise ValueError("level mismatch")

    def __mul__(self, other: "QuotientWord") -> "QuotientWord":
        self._require_compatible(other)
        return project_word(concat(self.to_word(), other.to_word()), self.level, self.c)

    def inverse(self) -> "QuotientWord":
        return project_word(inverse(self.to_word()), self.level, self.c)

    def to_word(self) -> Word:
        """The normal form read back as a plain free-group word."""
        return Word._make(self.alphabet, self.letters)

    def __repr__(self) -> str:
        return f"QuotientWord(level={self.level}, c={self.c}, word={str(self.to_word())!r})"


def project_word(w: Word, level: int, c: int) -> QuotientWord:
    """The canonical projection of a free-group word to the level quotient.

    A group homomorphism: every c-exponent is replaced by its symmetric
    residue mod 2^level and the cascade of cancellations is carried out.

    >>> str(project_word(Word(2, [(1, 5)]), 1, 1).to_word())
    'a1'
    """
    _check_integer(level, "level", 0)
    _check_integer(c, "distinguished generator", 1, w.n)
    letters = w.letters
    # Letters before the first c-letter outside the residue range are already
    # in normal form, and so is the whole word when there is no such letter.
    first = next((i for i, (gen, exp) in enumerate(letters) if gen == c
                  and exp.bit_length() >= level and symmetric_residue(exp, level) != exp), None)
    if first is None:
        return QuotientWord._make(level, c, w.n, letters)
    # The exponent at ``first`` has at least ``level`` bits, so the modulus
    # is at most twice its size.
    modulus = 1 << level
    half = modulus >> 1
    stack = list(letters[:first])
    push, pop = stack.append, stack.pop
    top = stack[-1][0] if stack else 0  # generator of the last letter on the stack
    for let in letters[first:]:
        gen, exp = let
        if gen == top:
            exp += pop()[1]
        elif gen != c or -half < exp <= half:
            # Already in normal form and next to another generator: keep it.
            push(let)
            top = gen
            continue
        if gen == c:
            exp %= modulus
            if exp > half:
                exp -= modulus
        if exp:
            push(_new_letter((gen, exp)))
            top = gen
        else:
            top = stack[-1][0] if stack else 0
    return QuotientWord._make(level, c, w.n, tuple(stack))


def conjugate_in_quotient(x: QuotientWord, y: QuotientWord) -> bool:
    """Conjugacy decision in the free product, linear in the number of runs.

    Each side is cyclically reduced at the letter level by the routine
    behind :func:`~goldmanab.words.cyclic_reduce`, with a merged c-exponent
    folded to its symmetric residue.  The two letter cycles are
    then conjugate exactly when one is a rotation of the other; this covers
    single letters (equal residues, equal free powers) and the identity.
    """
    x._require_compatible(y)

    def fold(gen: int, exp: int) -> int:
        return symmetric_residue(exp, x.level) if gen == x.c else exp

    return _is_rotation(_cyclic_core(x.letters, fold)[1], _cyclic_core(y.letters, fold)[1])


def kernel_element(
    level: int,
    exponents: Iterable[int],
    factors: Iterable[Word],
    conjugator: Word,
    c: int,
) -> Word:
    """A conjugated product of commutators of c-power wraps with words.

    Builds g * prod_i (c^(2^m_i) x_i c^(-2^m_i) x_i^(-1)) * g^(-1) as a
    reduced free-group word; every exponent m_i must be at least ``level``,
    which makes the result project to the identity at that level.
    """
    exponents = list(exponents)
    factors = list(factors)
    if not exponents or len(exponents) != len(factors):
        raise ValueError("need equally many exponents and words, at least one of each")
    _check_integer(level, "level", 0)
    for m in exponents:
        _check_integer(m, "exponent", level)
    n = conjugator.n
    _check_integer(c, "distinguished generator", 1, n)
    if any(x.n != n for x in factors):
        raise ValueError("alphabet mismatch among the factor words")
    out = conjugator
    for m, x in zip(exponents, factors):
        wrap = Word(n, (Letter(c, 1 << m),))
        out = out * wrap * x * wrap.inverse() * x.inverse()
    return out * conjugator.inverse()


def separation_level(a: Word, b: Word, c: int, n_max: int) -> Optional[int]:
    """Least level where the projections of two words stop being conjugate.

    The words must not be conjugate in the free group (ValueError: no level
    separates them).  Returns None when no level up to ``n_max`` does.

    Projection is a homomorphism and separation is monotone in the level,
    so this bisects on the cyclic cores over ``[0, min(n_max, T)]``, m being
    the largest |c-exponent| in the cores and T = m.bit_length() + 1 (0 when
    m = 0).  T separates: there each core c-exponent is its own residue, so
    projection and the letter-cycle reduction (a core's ends have distinct
    generators) keep both cores, and the rotation test is free conjugacy,
    which said no.  No core exponent exceeds its word's
    :func:`total_c_exponent`, so T is at most the level whose half-modulus
    passes both totals.  The top is tested too, for ``n_max < T``.

    >>> from goldmanab.words import parse_word
    >>> separation_level(parse_word("a1 a2", 2), parse_word("a1^-1 a2", 2), 1, 99)
    2
    """
    if a.n != b.n:
        raise ValueError(f"alphabet mismatch: {a.n} vs {b.n}")
    _check_integer(c, "distinguished generator", 1, a.n)
    _check_integer(n_max, "n_max")
    a, b = (Word._make(w.n, _cyclic_core(w.letters)[1]) for w in (a, b))
    if _is_rotation(a.letters, b.letters):
        raise ValueError("words are conjugate in the free group; no level separates them")
    m = max((abs(exp) for w in (a, b) for gen, exp in w.letters if gen == c), default=0)
    hi = min(n_max, m.bit_length() + 1 if m else 0)

    def separated(level: int) -> bool:
        return not conjugate_in_quotient(project_word(a, level, c), project_word(b, level, c))

    if hi < 0 or not separated(hi):
        return None
    return bisect.bisect_left(range(hi), True, key=separated)  # hi when no lower level separates


def total_c_exponent(w: Word, c: int) -> int:
    """Sum of |exp| over the c-letters of a word."""
    _check_integer(c, "distinguished generator", 1, w.n)
    return sum(abs(exp) for gen, exp in w.letters if gen == c)
