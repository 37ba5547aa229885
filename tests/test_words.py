import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from goldmanab.words import (
    CyclicWord,
    Letter,
    Word,
    are_conjugate,
    concat,
    conjugacy_canonical,
    cyclic_reduce,
    format_word,
    inverse,
    parse_word,
    reduce_word,
)

from conftest import raw_letters, words


class TestReduce:
    def test_full_cancellation(self):
        assert reduce_word([(1, 1), (1, -1)], 1).is_identity()

    def test_cancel_then_merge(self):
        assert reduce_word([(1, 2), (2, 1), (2, -1), (1, 3)], 2) == parse_word("a1^5", 2)

    def test_already_reduced(self):
        w = reduce_word([(1, 1), (2, 1)], 2)
        assert w.letters == (Letter(1, 1), Letter(2, 1))

    def test_zero_exponent_dropped(self):
        assert reduce_word([(1, 0), (2, 1)], 2) == parse_word("a2", 2)

    def test_generator_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            reduce_word([(3, 1)], 2)
        with pytest.raises(ValueError, match="out of range"):
            reduce_word([(0, 1)], 2)

    @given(raw_letters())
    def test_idempotent(self, raw):
        w = reduce_word(raw, 3)
        assert reduce_word([(l.gen, l.exp) for l in w.letters], 3) == w


class TestConcat:
    def test_inverse_pair(self):
        assert concat(parse_word("a1", 1), parse_word("a1^-1", 1)).is_identity()

    def test_middle_cancellation(self):
        assert concat(parse_word("a1 a2", 2), parse_word("a2^-1 a1", 2)) == parse_word("a1^2", 2)

    def test_identity(self):
        w = parse_word("a1 a2^-3", 2)
        assert concat(Word.identity(2), w) == w
        assert concat(w, Word.identity(2)) == w

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            concat(Word.identity(1), Word.identity(2))

    @given(words(), words(), words())
    def test_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)


class TestInverse:
    def test_reverse_and_negate(self):
        assert inverse(parse_word("a1 a2", 2)) == parse_word("a2^-1 a1^-1", 2)

    def test_empty(self):
        assert inverse(Word.identity(2)).is_identity()

    def test_power(self):
        assert inverse(parse_word("a1^3", 1)) == parse_word("a1^-3", 1)

    @given(words())
    def test_cancels(self, w):
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()


class TestPower:
    @given(words(), st.integers(-6, 6))
    def test_matches_repeated_product(self, w, k):
        base = w if k >= 0 else w.inverse()
        expected = Word.identity(w.n)
        for _ in range(abs(k)):
            expected = expected * base
        assert w ** k == expected

    def test_long_power_has_closed_form_length(self):
        # Conjugator a1 and cyclic core a2 a3^2: |w^k| = 2 + 3k.
        w = parse_word("a1 a2 a3^2 a1^-1", 3)
        assert len(w ** 100_000) == 2 + 3 * 100_000
        assert len(w ** -100_000) == 2 + 3 * 100_000

    def test_one_letter_core_scales_its_exponent(self):
        w = parse_word("a2 a1^3 a2^-1", 2)
        assert w ** -4 == parse_word("a2 a1^-12 a2^-1", 2)
        assert (w ** 4).letters == (Letter(2, 1), Letter(1, 12), Letter(2, -1))

    def test_exponent_must_be_an_integer(self):
        with pytest.raises(TypeError):
            parse_word("a1", 1) ** 1.5


class TestCyclicReduce:
    def test_one_step(self):
        core, conj = cyclic_reduce(parse_word("a1 a2 a1^-1", 2))
        assert core == parse_word("a2", 2)
        assert conj == parse_word("a1", 2)

    def test_already_cyclically_reduced(self):
        core, conj = cyclic_reduce(parse_word("a1 a2", 2))
        assert core == parse_word("a1 a2", 2)
        assert conj.is_identity()

    def test_empty(self):
        core, conj = cyclic_reduce(Word.identity(2))
        assert core.is_identity() and conj.is_identity()

    def test_merging_ends(self):
        core, conj = cyclic_reduce(parse_word("a1^2 a2 a1^3", 2))
        assert core == parse_word("a2 a1^5", 2)
        assert conj == parse_word("a1^2", 2)

    @given(words())
    def test_conjugation_identity(self, w):
        core, conj = cyclic_reduce(w)
        assert conj * core * conj.inverse() == w

    @given(words(max_len=4, max_exp=2))
    @settings(max_examples=300)
    def test_core_length_minimal_brute_force(self, w):
        # Oracle: the least reduced length over all rotations of the fully
        # expanded letter sequence.
        expanded = []
        for l in w.letters:
            step = 1 if l.exp > 0 else -1
            expanded.extend((l.gen, step) for _ in range(abs(l.exp)))
        if len(expanded) > 6:
            return
        best = min(
            (len(reduce_word(expanded[i:] + expanded[:i], w.n)) for i in range(len(expanded))),
            default=0,
        )
        core, _ = cyclic_reduce(w)
        assert len(core) == best


class TestConjugacy:
    def test_explicit_conjugator(self):
        assert are_conjugate(parse_word("a1 a2 a1^-1", 2), parse_word("a2", 2))

    def test_distinct_generators(self):
        assert not are_conjugate(parse_word("a1", 2), parse_word("a2", 2))

    def test_rotation(self):
        assert are_conjugate(parse_word("a1 a2", 2), parse_word("a2 a1", 2))

    def test_canonical_is_least_rotation(self):
        cyc = conjugacy_canonical(parse_word("a2 a1", 2))
        assert cyc.letters == (Letter(1, 1), Letter(2, 1))

    def test_cyclic_word_rejects_other_rotations(self):
        with pytest.raises(ValueError, match="canonical rotation"):
            CyclicWord(2, [(2, 1), (1, 1)])
        with pytest.raises(ValueError, match="not cyclically reduced"):
            CyclicWord(2, [(1, 1), (2, 1), (1, 1)])

    def test_canonical_after_reduction(self):
        assert conjugacy_canonical(parse_word("a1 a2 a1^-1", 2)) == CyclicWord(2, (Letter(2, 1),))

    @given(words(), words())
    def test_invariant_under_conjugation(self, g, w):
        assert conjugacy_canonical(g * w * g.inverse()) == conjugacy_canonical(w)


class TestGrammar:
    def test_empty_string(self):
        assert parse_word("", 3).is_identity()

    def test_round_trip(self):
        text = "a1 a2^-3 a1^2"
        assert format_word(parse_word(text, 2)) == text

    def test_malformed(self):
        for bad in ("b1", "a1^", "a", "a1^2^3", "a-1"):
            with pytest.raises(ValueError, match="malformed"):
                parse_word(bad, 3)

    @given(words())
    def test_parse_format_round_trip(self, w):
        assert parse_word(format_word(w), w.n) == w


class TestImmutability:
    def test_word_is_immutable(self):
        w = parse_word("a1", 1)
        with pytest.raises(AttributeError):
            w.n = 5

    def test_word_hashable(self):
        assert len({parse_word("a1 a2", 2), parse_word("a1 a2", 2)}) == 1

    def test_computed_word_is_immutable(self):
        w = parse_word("a1 a2", 2) * parse_word("a2^-1 a1", 2)
        with pytest.raises(AttributeError, match="Word is immutable"):
            w.letters = ()

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError, match="not reduced"):
            Word(2, [(1, 1), (1, 2)])
        with pytest.raises(ValueError, match="nonnegative"):
            reduce_word([], -1)

    def test_exponents_must_be_exact_integers(self):
        with pytest.raises(TypeError, match="exact integer"):
            Word(1, [(1, 1.5)])
        with pytest.raises(TypeError, match="exact integer"):
            reduce_word([(1, 1.5)], 1)
