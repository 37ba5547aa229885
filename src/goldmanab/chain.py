"""Quotients of a free group by powers of one distinguished generator.

Killing c^(2^level) for a free generator c turns the free group into the
free product of a cyclic group of order 2^level (generated by c) with the
free group on the remaining generators.  Elements are kept in normal form:
c-exponents live in the symmetric residue range (-2^(level-1), 2^(level-1)]
and no two adjacent letters can merge.  At level 0 the c-factor is trivial
and every c-letter vanishes.

The projections at successive levels have nested kernels, which realizes a
strictly descending chain; the separation machinery finds the first level
at which two non-conjugate words stop being conjugate in the quotient.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .words import Letter, Word, _checked_letters, _Value, are_conjugate, reduce_word

# A c-power exponent, or a maximal block of free-factor letters.
Syllable = Union[int, tuple[Letter, ...]]


def symmetric_residue(exp: int, level: int) -> int:
    """Reduce mod 2^level into (-2^(level-1), 2^(level-1)].

    The boundary value +2^(level-1) is kept, its negative is folded up.

    >>> [symmetric_residue(e, 2) for e in range(-4, 5)]
    [0, 1, 2, -1, 0, 1, 2, -1, 0]
    """
    modulus = 1 << level
    r = exp % modulus
    if r > modulus >> 1:
        r -= modulus
    return r


class QuotientWord(_Value):
    """Normal-form element of the level quotient.

    Immutable; built with :func:`project_word` or by multiplying existing
    elements.
    """

    __slots__ = ("level", "c", "alphabet", "letters")

    def __new__(cls, level: int, c: int, alphabet: int, letters: Iterable[Letter] = ()):
        _check_level(level)
        if not 1 <= c <= alphabet:
            raise ValueError(f"distinguished generator {c} out of range 1..{alphabet}")
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
        stack = list(self.letters)
        for gen, exp in other.letters:
            _push_quotient(stack, gen, exp, self.level, self.c)
        return QuotientWord._make(self.level, self.c, self.alphabet, tuple(stack))

    def inverse(self) -> "QuotientWord":
        stack: list[Letter] = []
        for gen, exp in reversed(self.letters):
            _push_quotient(stack, gen, -exp, self.level, self.c)
        return QuotientWord._make(self.level, self.c, self.alphabet, tuple(stack))

    def to_word(self) -> Word:
        """The normal form read back as a plain free-group word."""
        return Word._make(self.alphabet, self.letters)

    def __repr__(self) -> str:
        return (
            f"QuotientWord(level={self.level}, c={self.c}, "
            f"word={str(self.to_word())!r})"
        )


def _check_level(level: int) -> None:
    if level < 0:
        raise ValueError("level must be nonnegative")


def _push_quotient(stack: list[Letter], gen: int, exp: int, level: int, c: int) -> None:
    if gen == c:
        exp = symmetric_residue(exp, level)
    if exp == 0:
        return
    if stack and stack[-1].gen == gen:
        total = stack[-1].exp + exp
        if gen == c:
            total = symmetric_residue(total, level)
        stack.pop()
        if total:
            stack.append(Letter(gen, total))
    else:
        stack.append(Letter(gen, exp))


def project_word(w: Word, level: int, c: int) -> QuotientWord:
    """The canonical projection of a free-group word to the level quotient.

    A group homomorphism: every c-exponent is replaced by its symmetric
    residue mod 2^level and the cascade of cancellations is carried out.

    >>> str(project_word(reduce_word([(1, 5)], 2), 1, 1).to_word())
    'a1'
    """
    _check_level(level)
    if not 1 <= c <= w.n:
        raise ValueError(f"distinguished generator {c} out of range 1..{w.n}")
    stack: list[Letter] = []
    for gen, exp in w.letters:
        _push_quotient(stack, gen, exp, level, c)
    return QuotientWord._make(level, c, w.n, tuple(stack))


def _syllables(q: QuotientWord) -> list[Syllable]:
    # Alternating c-powers and maximal blocks of free-factor letters.
    out: list[Syllable] = []
    block: list[Letter] = []
    for let in q.letters:
        if let.gen == q.c:
            if block:
                out.append(tuple(block))
                block = []
            out.append(let.exp)
        else:
            block.append(let)
    if block:
        out.append(tuple(block))
    return out


def _merge_syllables(last: Syllable, first: Syllable, level: int, alphabet: int) -> Optional[Syllable]:
    if isinstance(last, int):
        return symmetric_residue(last + first, level) or None
    return reduce_word(last + first, alphabet).letters or None


def _cyclic_syllables(q: QuotientWord) -> list[Syllable]:
    # Conjugate away matching ends until the syllable cycle is reduced; the
    # cycle alternates, so equal ends are both c-powers or both free blocks.
    syl = _syllables(q)
    while len(syl) >= 2 and isinstance(syl[0], int) == isinstance(syl[-1], int):
        merged = _merge_syllables(syl[-1], syl[0], q.level, q.alphabet)
        middle = syl[1:-1]
        syl = middle if merged is None else [merged] + middle
    return syl


def conjugate_in_quotient(x: QuotientWord, y: QuotientWord) -> bool:
    """Conjugacy decision in the free product.

    Both sides are cyclically reduced at the syllable level; single-factor
    elements are compared inside their factor (equal residues for c-powers,
    free-group conjugacy otherwise) and longer normal forms by rotation of
    their syllable cycles.
    """
    x._require_compatible(y)
    sx, sy = _cyclic_syllables(x), _cyclic_syllables(y)
    if len(sx) <= 1 or len(sy) <= 1:
        if len(sx) != len(sy):
            return False
        if not sx:
            return True
        vx, vy = sx[0], sy[0]
        if isinstance(vx, int) or isinstance(vy, int):
            return vx == vy
        return are_conjugate(Word._make(x.alphabet, vx), Word._make(y.alphabet, vy))
    if len(sx) != len(sy):
        return False
    return any(sy == sx[i:] + sx[:i] for i in range(len(sx)))


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
    if any(m < level for m in exponents):
        raise ValueError(f"all exponents must be >= level {level}")
    n = conjugator.n
    if not 1 <= c <= n:
        raise ValueError(f"distinguished generator {c} out of range 1..{n}")
    if any(x.n != n for x in factors):
        raise ValueError("alphabet mismatch among the factor words")
    out = conjugator
    for m, x in zip(exponents, factors):
        wrap = Word(n, (Letter(c, 1 << m),))
        out = out * wrap * x * wrap.inverse() * x.inverse()
    return out * conjugator.inverse()


def separation_level(a: Word, b: Word, c: int, n_max: int) -> Optional[int]:
    """Least level where the projections of two words stop being conjugate.

    The inputs must not be conjugate in the free group (then no level can
    separate them and a ValueError is raised).  Returns None when no level
    up to ``n_max`` separates; a level large enough that 2^(level-1)
    exceeds the total absolute c-exponent of both words always does.
    """
    if a.n != b.n:
        raise ValueError(f"alphabet mismatch: {a.n} vs {b.n}")
    if are_conjugate(a, b):
        raise ValueError("words are conjugate in the free group; no level separates them")
    for level in range(n_max + 1):
        if not conjugate_in_quotient(project_word(a, level, c), project_word(b, level, c)):
            return level
    return None


def total_c_exponent(w: Word, c: int) -> int:
    """Sum of |exp| over the c-letters of a word (the separation budget)."""
    return sum(abs(let.exp) for let in w.letters if let.gen == c)
